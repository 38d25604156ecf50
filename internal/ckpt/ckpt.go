package ckpt

import (
	"fmt"
	"sort"

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
// step boundary of the clean reference run.
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
	// data (states plus page deltas).
	Bytes uint64
}

// Complete reports whether the reference run ran to a normal halt, which
// the clean-tail short circuit requires.
func (l *Log) Complete() bool { return l.Stop.Reason == cpu.StopHalt }

// pointBytes approximates the in-memory size of one checkpoint.
func pointBytes(pt *Point) uint64 {
	b := uint64(len(pt.Pages)) * 16 // headers
	for i := range pt.Pages {
		b += uint64(len(pt.Pages[i].Words)) * 4
	}
	return b + uint64(isa.NumRegs+8)*8
}

// capture appends the machine's current boundary state as a new point.
func (l *Log) capture(m *cpu.Machine, prefix dbt.Stats) {
	pt := Point{State: m.CaptureState(), OutLen: len(m.Output), Prefix: prefix}
	m.Mem.CaptureDirty(func(page uint32, words []int32) {
		pt.Pages = append(pt.Pages, Page{Index: page, Words: append([]int32(nil), words...)})
	})
	l.Bytes += pointBytes(&pt)
	l.Points = append(l.Points, pt)
}

// finish seals the log with the reference run's terminal result.
func (l *Log) finish(m *cpu.Machine, stop cpu.Stop, prefix dbt.Stats, cacheSize int) {
	l.Stop = stop
	l.Final = m.CaptureState()
	l.FinalPrefix = prefix
	l.CacheSize = cacheSize
	l.Output = append([]int32(nil), m.Output...)
	l.MemWords = m.Mem.Size()
}

// Record performs the instrumented clean reference run on a private clone
// of snap, capturing a checkpoint every interval steps. It returns the log
// even when the run does not halt (Stop records how it ended); callers
// decide whether that is an error.
func Record(snap *dbt.Snapshot, interval, maxSteps uint64) (*Log, error) {
	d := snap.NewDBT()
	base := snap.Stats()
	m, res := d.Start(nil)
	if res != nil {
		return nil, fmt.Errorf("ckpt: reference run failed to start: %v", res.Stop)
	}
	prefix := func() dbt.Stats { return d.StatsSnapshot().Sub(base) }
	return record(m, interval, maxSteps, d.Advance, prefix, d.CacheLen)
}

// RecordStatic performs the clean reference run for native (no translator)
// execution of p, capturing a checkpoint every interval steps, on an
// unfrozen compiled engine that resumes at each boundary. Native runs
// share no translator state, so recording never truncates.
func RecordStatic(p *isa.Program, interval, maxSteps uint64) (*Log, error) {
	m := cpu.New()
	m.Reset(p)
	eng := comp.NewEngine(p.Code, m.Costs, 0)
	advance := func(m *cpu.Machine, target uint64) cpu.Stop { return eng.Run(m, p.Code, target) }
	none := func() dbt.Stats { return dbt.Stats{} }
	return record(m, interval, maxSteps, advance, none, func() int { return 0 })
}

// record is the capture loop both recorders share: it advances the run on
// m to every interval boundary and captures a point there. prefix reports
// the translator work accumulated so far (a delta over the snapshot
// baseline; zero for native runs) and cacheLen the final code cache size.
func record(m *cpu.Machine, interval, maxSteps uint64, advance func(*cpu.Machine, uint64) cpu.Stop,
	prefix func() dbt.Stats, cacheLen func() int) (*Log, error) {
	if interval == 0 {
		return nil, fmt.Errorf("ckpt: interval must be positive")
	}
	l := &Log{Interval: interval}
	// Point 0: the run's start boundary (memory untouched, so the capture
	// takes no pages — the replayer's zero image is the start image).
	l.capture(m, prefix())
	for {
		target := m.Steps + interval
		if target > maxSteps {
			target = maxSteps
		}
		stop := advance(m, target)
		pre := prefix()
		if stop.Reason != cpu.StopOutOfSteps || target >= maxSteps {
			// Terminal: halt, detection, trap — or the real budget ran out.
			l.finish(m, stop, pre, cacheLen())
			return l, nil
		}
		if l.Truncated {
			continue
		}
		if pre.Structural() {
			// The run warmed the translator further; clones would not share
			// this cache state, so later boundaries are not restorable.
			l.Truncated = true
			continue
		}
		l.capture(m, pre)
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

// Replayer materializes machines at checkpoints of one log. It keeps a
// memory image at its current point and applies page deltas
// incrementally, so a worker that visits points in ascending order pays
// each delta once; seeking backwards rebuilds from the zero image.
//
// The replayer owns one machine and one working memory and restores them
// in place on every Machine call: the working memory tracks the image,
// and only the pages the previous sample wrote are copied back (see
// mem.Memory.Rollback), so a restore allocates nothing and costs the
// previous sample's footprint plus the deltas crossed. A Replayer is not
// safe for concurrent use — campaigns give each worker its own.
type Replayer struct {
	log   *Log
	img   []int32 // memory at point cur
	cur   int     // last applied point index; -1 = zero image
	m     *cpu.Machine
	work  *mem.Memory
	costs *cpu.CostModel
}

// NewReplayer returns a replayer over the log with a zeroed image.
func (l *Log) NewReplayer() *Replayer {
	return &Replayer{
		log:   l,
		img:   make([]int32, l.MemWords),
		cur:   -1,
		m:     new(cpu.Machine),
		work:  mem.New(l.MemWords),
		costs: cpu.DefaultCosts(),
	}
}

// seek brings the image to checkpoint k's memory state, mirroring every
// applied delta into the working memory as clean (baseline) pages.
// Callers first roll the working memory back, so both agree at the start.
func (r *Replayer) seek(k int) {
	if k < r.cur {
		clear(r.img)
		r.work.WriteClean(0, r.img)
		r.cur = -1
	}
	for ; r.cur < k; r.cur++ {
		for _, pg := range r.log.Points[r.cur+1].Pages {
			lo := int(pg.Index) << mem.PageShift
			copy(r.img[lo:lo+len(pg.Words)], pg.Words)
			r.work.WriteClean(uint32(lo), pg.Words)
		}
	}
}

// Machine restores the replayer's machine to checkpoint k and returns it:
// architectural state and counters from the point, memory equal to the
// rebuilt image, output primed with the reference prefix, and every other
// field (fault, branch hook, cost model) back at its default. The caller
// plants the fault and (for DBT runs) resumes a translator clone on it.
// The machine stays valid only until the next Machine call, which
// restores the same machine and memory in place.
func (r *Replayer) Machine(k int) *cpu.Machine {
	r.work.Rollback(r.img)
	r.seek(k)
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
