package ckpt

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/comp"
	"repro/internal/cpu"
	"repro/internal/dbt"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Page is one dirty memory page captured at a checkpoint: the words of
// tracking page Index at capture time.
type Page struct {
	Index uint32
	Words []int32
}

// Point is one checkpoint: everything needed to rebuild the machine at a
// step boundary of the clean reference run. Recorders capture at every
// interval boundary and, when that falls inside a block, again at the
// next block entry or guard continuation (comp.Guard) of the compiled
// engine samples run on, where a sample that rejoins the reference
// trajectory passes the point in view of its engine's watch (see
// Replayer.Rejoins).
type Point struct {
	// State is the architectural and counter state at the boundary.
	State cpu.State
	// OutLen is how many words of the reference output stream had been
	// emitted by the boundary.
	OutLen int
	// Prefix is the translator work the reference run accumulated from its
	// start to this point (a delta over the snapshot baseline): a resumed
	// clone credits it so its final stats equal a full replay's.
	Prefix dbt.Stats
	// Pages holds the memory pages written since the previous point, in
	// ascending page order. Rebuilding memory at point k applies the page
	// deltas of points 0..k onto a zero image.
	Pages []Page
	// SiteOffset is where, in Log.Sites, the entry of the first branch
	// after the point (branch State.DirectBranches) starts. Entries from
	// there on decode against this point's state.
	SiteOffset uint32
}

// Log is the recorded checkpoint stream of one clean reference run, plus
// the run's final result — the reference against which faulty outcomes are
// classified and from which provably clean tails are synthesized.
type Log struct {
	// Interval is the capture spacing in machine steps.
	Interval uint64
	// MemWords is the machine's memory size in words.
	MemWords uint32
	// Output is the complete reference output stream.
	Output []int32
	// Points are the checkpoints in capture (ascending step) order. Index 0
	// is the run's start boundary and always exists.
	Points []Point
	// Truncated reports that recording stopped capturing points early
	// because the reference run mutated shared translator state; the points
	// present are still valid.
	Truncated bool
	// Stop is how the reference run ended.
	Stop cpu.Stop
	// Final is the machine state when the reference run stopped.
	Final cpu.State
	// FinalPrefix is the translator-work delta of the whole reference run.
	FinalPrefix dbt.Stats
	// CacheSize is the code cache size (instructions) at the end of the
	// reference run (zero for native recordings).
	CacheSize int
	// Bytes approximates the memory footprint of the recorded checkpoint
	// data (states, page deltas and the site table).
	Bytes uint64
	// Sites is the site table: one entry per dynamic direct branch of the
	// run, in execution order, each a few bytes relative to the entry or
	// point before it (see Site and siteWriter.add).
	Sites []byte
	// CodeLen is the length of the code the run executed from, at its
	// end: every site's IP is below it.
	CodeLen uint32
}

// Complete reports whether the reference run ran to a normal halt, which
// the clean-tail short circuit requires.
func (l *Log) Complete() bool { return l.Stop.Reason == cpu.StopHalt }

// pointBytes approximates the in-memory size of one checkpoint.
func pointBytes(pt *Point) uint64 {
	b := uint64(len(pt.Pages))*16 + 4 // page headers, site offset
	for i := range pt.Pages {
		b += uint64(len(pt.Pages[i].Words)) * 4
	}
	return b + uint64(isa.NumRegs+8)*8
}

// capture appends the machine's current boundary state as a new point,
// where the site table's next entry decodes from.
func (l *Log) capture(m *cpu.Machine, prefix dbt.Stats, w *siteWriter) {
	pt := Point{State: m.CaptureState(), OutLen: len(m.Output), Prefix: prefix, SiteOffset: uint32(len(w.buf))}
	m.Mem.CaptureDirty(func(page uint32, words []int32) {
		pt.Pages = append(pt.Pages, Page{Index: page, Words: append([]int32(nil), words...)})
	})
	l.Bytes += pointBytes(&pt)
	l.Points = append(l.Points, pt)
	w.cur = cursorAt(&pt)
}

// finish seals the log with the reference run's terminal result and its
// site table.
func (l *Log) finish(m *cpu.Machine, stop cpu.Stop, prefix dbt.Stats, codeLen int, w *siteWriter) {
	l.Stop = stop
	l.Final = m.CaptureState()
	l.FinalPrefix = prefix
	l.CodeLen = uint32(codeLen)
	l.Output = append([]int32(nil), m.Output...)
	l.MemWords = m.Mem.Size()
	l.Sites = bytes.Clone(w.buf)
	l.Bytes += uint64(len(l.Sites))
	m.BranchHook = nil
}

// Record performs the instrumented clean reference run on a private clone
// of snap, capturing a checkpoint every interval steps and at the first
// compiled block entry or guard continuation after each. It returns the log even when the run
// does not halt (Stop records how it ended); callers decide whether that
// is an error.
func Record(snap *dbt.Snapshot, interval, maxSteps uint64) (*Log, error) {
	d := snap.NewDBT()
	base := snap.Stats()
	m, res := d.Start(nil)
	if res != nil {
		return nil, fmt.Errorf("ckpt: reference run failed to start: %v", res.Stop)
	}
	prefix := func() dbt.Stats { return d.StatsSnapshot().Sub(base) }
	l, err := record(m, interval, maxSteps, d.Advance, prefix, d.CacheLen, d.BlockStart)
	if l != nil {
		l.CacheSize = int(l.CodeLen)
	}
	return l, err
}

// RecordStatic performs the clean reference run for native (no translator)
// execution of p on an unfrozen compiled engine that resumes at each
// boundary. starts are the block starts, in address order, of the frozen
// engine samples run on (a native inject.Prepared's reached set): besides
// every interval boundary, the recorder captures the first of them or of
// the guard continuations (comp.AfterGuard) entered at or after it — the
// points that engine's watch sees. Nil starts (samples on the step
// backend) capture the boundaries only. Native runs share no translator
// state, so recording never truncates.
func RecordStatic(p *isa.Program, starts []uint32, interval, maxSteps uint64) (*Log, error) {
	m := cpu.New()
	m.Reset(p)
	eng := comp.NewEngine(p.Code, m.Costs, 0)
	advance := func(m *cpu.Machine, target uint64) cpu.Stop { return eng.Run(m, p.Code, target) }
	none := func() dbt.Stats { return dbt.Stats{} }
	entry := func(ip uint32) bool {
		_, found := slices.BinarySearch(starts, ip)
		return found || starts == nil || comp.AfterGuard(p.Code, ip)
	}
	return record(m, interval, maxSteps, advance, none, func() int { return len(p.Code) }, entry)
}

// record is the capture loop both recorders share: it advances the run on
// m to every interval boundary and captures a point there, plus one at the
// next address entry accepts (a block entry or guard continuation of the
// samples' engine) when the boundary is not one. A branch hook writes
// every direct branch into the site table as it executes, which runs the
// recording on the step interpreter. prefix reports the translator work
// accumulated so far (a delta over the snapshot baseline; zero for native
// runs) and codeLen the length of the code the run executes.
func record(m *cpu.Machine, interval, maxSteps uint64, advance func(*cpu.Machine, uint64) cpu.Stop,
	prefix func() dbt.Stats, codeLen func() int, entry func(ip uint32) bool) (*Log, error) {
	if interval == 0 {
		return nil, fmt.Errorf("ckpt: interval must be positive")
	}
	l := &Log{Interval: interval}
	w := &siteWriter{}
	// Point 0: the run's start boundary (memory untouched, so the capture
	// takes no pages — the replayer's zero image is the start image).
	l.capture(m, prefix(), w)
	m.BranchHook = func(ev cpu.BranchEvent) { w.add(&ev, m.Steps, prefix()) }
	for boundary := interval; ; boundary += interval {
		if boundary <= m.Steps {
			continue // a block longer than the interval outran this boundary
		}
		stop := advance(m, min(boundary, maxSteps))
		// Capture the boundary, and when it falls inside a block, step on
		// to the next block entry of the samples' engine and capture that
		// too: a rejoining sample's watch sees only block entries and guard
		// continuations, while the boundary point keeps every restore as
		// close to its fault.
		for {
			pre := prefix()
			if stop.Reason != cpu.StopOutOfSteps || m.Steps >= maxSteps {
				// Terminal: halt, detection, trap — or the real budget ran out.
				l.finish(m, stop, pre, codeLen(), w)
				return l, nil
			}
			if pre.Structural() {
				// The run warmed the translator further; clones would not
				// share this cache state, so later points are not restorable.
				l.Truncated = true
			}
			if l.Truncated {
				break
			}
			l.capture(m, pre, w)
			if entry(m.IP) {
				break
			}
			for stop.Reason == cpu.StopOutOfSteps && m.Steps < maxSteps && !entry(m.IP) {
				stop = advance(m, m.Steps+1)
			}
		}
	}
}

// PointAtBranch returns the index of the last point whose direct-branch
// counter has not yet passed branchIndex: restoring there replays the
// branch that the fault strikes. The counter is nondecreasing across
// points, so this is a binary search.
func (l *Log) PointAtBranch(branchIndex uint64) int {
	return l.lastAtOrBefore(func(pt *Point) uint64 { return pt.State.DirectBranches }, branchIndex)
}

// PointAtStep returns the index of the last point at or before machine
// step stepIndex (the restore point for step-indexed register faults).
func (l *Log) PointAtStep(stepIndex uint64) int {
	return l.lastAtOrBefore(func(pt *Point) uint64 { return pt.State.Steps }, stepIndex)
}

// lastAtOrBefore finds the greatest k with key(points[k]) <= limit. Point
// 0 always qualifies: both counters start at zero.
func (l *Log) lastAtOrBefore(key func(*Point) uint64, limit uint64) int {
	k := sort.Search(len(l.Points), func(i int) bool { return key(&l.Points[i]) > limit })
	if k == 0 {
		return 0
	}
	return k - 1
}

// restoredPages counts the memory pages replayers have written into their
// working memories to restore checkpoints (see RestoredPages).
var restoredPages atomic.Uint64

// RestoredPages returns the number of memory pages the replayers released
// so far in the process have restored: pages a sample wrote that a later
// restore rolled back, plus pages a seek applied from a delta or zeroed.
// It is a cost counter for gating restore work; it is not deterministic
// across worker counts, since which worker restores which sample varies.
// Release's own reset is not a restore and is not counted.
func RestoredPages() uint64 { return restoredPages.Load() }

// zeroPage is the words of a zero tracking page.
var zeroPage [mem.PageWords]int32

// Replayer materializes machines at checkpoints of one log. It owns one
// machine and one memory, restored in place on every Machine call. The
// memory's baseline, the image at the current point, is a page table of
// references into the log's immutable page deltas (the newest delta up
// to that point that holds the page, or nil for a zero page): a seek
// forward writes each delta it crosses into the memory once, and a seek
// backward zeroes only the pages the table references and replays from
// point 0, so a worker that visits points in ascending order pays each
// delta once. A restore first rolls back only the pages the previous
// sample wrote, from the table (see mem.Memory.Rollback), so it
// allocates nothing and costs the previous sample's footprint plus the
// deltas crossed.
//
// Replayers are pooled process-wide: NewReplayer reuses a released one,
// of any log (resized in place when its arrays hold the new log's
// MemWords), and Release hands one back reset to a fresh replayer's
// state. A Replayer is not safe for concurrent use — campaigns give each
// worker its own.
type Replayer struct {
	log *Log
	// base[p] is tracking page p of the image at point cur, aliasing a
	// page delta of the log (nil = zero page).
	base  [][]int32
	cur   int // last applied point index; -1 = zero image
	m     *cpu.Machine
	work  *mem.Memory
	costs *cpu.CostModel
	// Rejoins marks the pages it has compared with seen[page] == stamp,
	// so a check allocates nothing.
	seen  []uint32
	stamp uint32
	// pages counts the pages restored since NewReplayer; Release adds it
	// to restoredPages.
	pages uint64
}

// maxIdleReplayers bounds the free list: enough for a few concurrent
// campaigns' workers, while an idle replayer pins a whole memory image.
const maxIdleReplayers = 16

// replayers holds released replayers for NewReplayer to reuse, across
// logs, sessions and goroutines: one free list for the process keeps the
// number of idle memories near the number of workers, not the number of
// warm logs, and a replayer released on one P is reused on any other.
var replayers struct {
	sync.Mutex
	idle []*Replayer
}

// NewReplayer returns a replayer over the log at the zero image, reusing
// a released one when one is idle.
func (l *Log) NewReplayer() *Replayer {
	var r *Replayer
	replayers.Lock()
	if n := len(replayers.idle); n > 0 {
		r = replayers.idle[n-1]
		replayers.idle[n-1] = nil
		replayers.idle = replayers.idle[:n-1]
	}
	replayers.Unlock()
	if r == nil {
		r = &Replayer{cur: -1, m: new(cpu.Machine), costs: cpu.DefaultCosts()}
	}
	r.bind(l)
	return r
}

// bind attaches a reset replayer to l, resizing its memory, page table
// and marks in place when their arrays hold l.MemWords and reallocating
// them when not.
func (r *Replayer) bind(l *Log) {
	r.log = l
	if r.work == nil || !r.work.Resize(l.MemWords) {
		r.work = mem.New(l.MemWords)
	}
	pages := (int(l.MemWords) + mem.PageWords - 1) >> mem.PageShift
	if pages <= cap(r.base) {
		r.base = r.base[:pages]
	} else {
		r.base = make([][]int32, pages)
	}
	if pages <= cap(r.seen) {
		r.seen = r.seen[:pages]
	} else {
		r.seen = make([]uint32, pages)
	}
}

// Release returns the replayer to the free list for NewReplayer to
// reuse, or drops it when maxIdleReplayers are idle already. Neither the
// replayer nor any machine it returned may be used afterwards; a second
// Release does nothing.
func (r *Replayer) Release() {
	if r.log == nil {
		return // already released
	}
	restoredPages.Add(r.pages)
	r.reset()
	replayers.Lock()
	if len(replayers.idle) < maxIdleReplayers {
		replayers.idle = append(replayers.idle, r)
	}
	replayers.Unlock()
}

// reset brings the replayer back to a fresh one's state: it rolls back
// the last sample's writes and zeroes the pages the table references, so
// the memory is all zero again, and drops every reference into the log
// and the last sample (machine, fault, hooks).
func (r *Replayer) reset() {
	r.work.Rollback(r.base)
	r.zero()
	r.log, r.pages = nil, 0
	*r.m = cpu.Machine{Output: r.m.Output[:0]}
}

// zero clears every page the table references, in the memory and in the
// table, returning the memory to the zero image (the caller has rolled
// it back to the table first). It returns the number of pages zeroed.
func (r *Replayer) zero() (pages int) {
	for p, b := range r.base {
		if b != nil {
			r.work.WriteClean(uint32(p)<<mem.PageShift, zeroPage[:len(b)])
			r.base[p] = nil
			pages++
		}
	}
	r.cur = -1
	return pages
}

// seek brings the memory's baseline to checkpoint k's memory state,
// writing every delta it crosses into the page table and, as clean
// (baseline) pages, into the memory. Callers first roll the memory back,
// so both agree at the start. It returns the number of pages it wrote.
func (r *Replayer) seek(k int) (pages int) {
	if k < r.cur {
		pages = r.zero()
	}
	for ; r.cur < k; r.cur++ {
		for _, pg := range r.log.Points[r.cur+1].Pages {
			r.base[pg.Index] = pg.Words
			r.work.WriteClean(pg.Index<<mem.PageShift, pg.Words)
			pages++
		}
	}
	return pages
}

// Machine restores the replayer's machine to checkpoint k and returns it:
// architectural state and counters from the point, memory equal to the
// rebuilt image, output primed with the reference prefix, and every other
// field (fault, branch hook, cost model) back at its default. The caller
// plants the fault and (for DBT runs) resumes a translator clone on it.
// The machine stays valid only until the next Machine call, which
// restores the same machine and memory in place.
func (r *Replayer) Machine(k int) *cpu.Machine {
	r.pages += uint64(r.work.Rollback(r.base) + r.seek(k))
	pt := &r.log.Points[k]
	m := r.m
	*m = cpu.Machine{
		Mem:    r.work,
		Costs:  r.costs,
		Output: append(m.Output[:0], r.log.Output[:pt.OutLen]...),
	}
	m.RestoreFrom(pt.State)
	return m
}

// Rejoins reports whether the machine the last Machine call restored (at
// point r, say) has, since then, rejoined the reference run at point k >= r:
// its IP, registers, flags, output and every memory word equal the
// reference's at k. Only the counters may differ, and nothing else feeds
// a native run's future, so the machine's remaining run is the
// reference's from k, shifted by the counter offsets. Memory can differ
// only on the pages the sample wrote and the pages of deltas r+1..k, so
// only those are compared: each against the newest of those deltas that
// holds it, else against the page table at r. A check allocates nothing.
func (r *Replayer) Rejoins(k int) bool {
	m, pt := r.m, &r.log.Points[k]
	st := &pt.State
	if k < r.cur || m.IP != st.IP || m.Regs != st.Regs || m.Flags != st.Flags || len(m.Output) != pt.OutLen {
		return false
	}
	from := r.log.Points[r.cur].OutLen
	if !slices.Equal(m.Output[from:], r.log.Output[from:pt.OutLen]) {
		return false
	}
	if r.stamp++; r.stamp == 0 {
		clear(r.seen[:cap(r.seen)])
		r.stamp = 1
	}
	for j := k; j > r.cur; j-- {
		for _, pg := range r.log.Points[j].Pages {
			if r.seen[pg.Index] == r.stamp {
				continue
			}
			r.seen[pg.Index] = r.stamp
			if !slices.Equal(r.work.Page(pg.Index), pg.Words) {
				return false
			}
		}
	}
	return r.work.Dirty(func(page uint32, words []int32) bool {
		if r.seen[page] == r.stamp {
			return true
		}
		if b := r.base[page]; b != nil {
			return slices.Equal(words, b)
		}
		return slices.Equal(words, zeroPage[:len(words)])
	})
}
