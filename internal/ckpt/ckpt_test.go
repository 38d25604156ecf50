package ckpt

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/check"
	"repro/internal/comp"
	"repro/internal/cpu"
	"repro/internal/dbt"
	"repro/internal/isa"
	"repro/internal/mem"
)

// The test workload mixes loops, calls, memory traffic (so checkpoints
// carry page deltas) and output, and runs a few thousand steps so an
// interval of a few hundred yields a meaningful point stream.
const workload = `
.data 64
main:
    movi eax, 0
    movi ecx, 30
    movi esi, 0
outer:
    movi edx, 8
inner:
    addi eax, 7
    store [esi], eax
    load ebx, [esi]
    add eax, ebx
    addi esi, 1
    cmpi esi, 40
    jlt keep
    movi esi, 0
keep:
    subi edx, 1
    cmpi edx, 0
    jgt inner
    call bump
    out eax
    subi ecx, 1
    cmpi ecx, 0
    jgt outer
    out esi
    halt
bump:
    addi eax, 3
    ret
`

func mustAssemble(t testing.TB) *isa.Program {
	t.Helper()
	p, err := asm.Assemble("ckpt-t", workload)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

const maxSteps = 10_000_000

// warmSnapshot runs the translator until clean runs stop mutating shared
// state, then snapshots — the same precondition the injection campaigns
// establish.
func warmSnapshot(t testing.TB, p *isa.Program, opts dbt.Options) *dbt.Snapshot {
	t.Helper()
	d := dbt.New(p, opts)
	res := d.Run(nil, maxSteps)
	if res.Stop.Reason != cpu.StopHalt {
		t.Fatalf("clean run: %v", res.Stop)
	}
	for i := 0; i < 32; i++ {
		pre := d.StatsSnapshot()
		if res = d.Run(nil, maxSteps); res.Stop.Reason != cpu.StopHalt {
			t.Fatalf("warm run: %v", res.Stop)
		}
		if !d.StatsSnapshot().Sub(pre).Structural() {
			break
		}
	}
	return d.Snapshot()
}

// checkAgainstLog asserts that a resumed execution reproduced the
// reference run exactly.
func checkAgainstLog(t *testing.T, label string, k int, l *Log,
	stopReason cpu.StopReason, st cpu.State, out []int32) {
	t.Helper()
	if stopReason != l.Stop.Reason {
		t.Errorf("%s point %d: stop %v, want %v", label, k, stopReason, l.Stop.Reason)
	}
	if st.Steps != l.Final.Steps {
		t.Errorf("%s point %d: steps %d, want %d", label, k, st.Steps, l.Final.Steps)
	}
	if st.Cycles != l.Final.Cycles {
		t.Errorf("%s point %d: cycles %d, want %d", label, k, st.Cycles, l.Final.Cycles)
	}
	if st.DirectBranches != l.Final.DirectBranches {
		t.Errorf("%s point %d: branches %d, want %d", label, k, st.DirectBranches, l.Final.DirectBranches)
	}
	if st.SigChecks != l.Final.SigChecks {
		t.Errorf("%s point %d: sig checks %d, want %d", label, k, st.SigChecks, l.Final.SigChecks)
	}
	if len(out) != len(l.Output) {
		t.Fatalf("%s point %d: output length %d, want %d", label, k, len(out), len(l.Output))
	}
	for i := range out {
		if out[i] != l.Output[i] {
			t.Fatalf("%s point %d: output[%d] = %d, want %d", label, k, i, out[i], l.Output[i])
		}
	}
}

// Property: restoring any checkpoint and running to completion reproduces
// the full run exactly — output, cycles, steps, counters and stop reason —
// for every translated technique under every checking policy.
func TestRestoreReproducesReferenceDBT(t *testing.T) {
	p := mustAssemble(t)
	techs := []string{"none", "EdgCF", "RCF", "ECF"}
	policies := []dbt.Policy{dbt.PolicyAllBB, dbt.PolicyRetBE, dbt.PolicyRet, dbt.PolicyEnd}
	for _, name := range techs {
		for _, pol := range policies {
			label := fmt.Sprintf("%s/%v", name, pol)
			tech, err := check.New(name, dbt.UpdateCmov)
			if err != nil {
				t.Fatal(err)
			}
			snap := warmSnapshot(t, p, dbt.Options{Technique: tech, Policy: pol})
			l, err := Record(snap, 500, maxSteps)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if l.Stop.Reason != cpu.StopHalt {
				t.Fatalf("%s: reference ended with %v", label, l.Stop)
			}
			if l.Truncated {
				t.Fatalf("%s: recording truncated — warm snapshot still churns", label)
			}
			if len(l.Points) < 3 {
				t.Fatalf("%s: only %d points recorded", label, len(l.Points))
			}
			r := l.NewReplayer()
			for k := range l.Points {
				sd := snap.NewDBT()
				m := r.Machine(k)
				sd.Resume(m, l.Points[k].Prefix)
				stop := sd.Advance(m, maxSteps)
				res := sd.Finish(m, stop)
				checkAgainstLog(t, label, k, l, res.Stop.Reason, m.CaptureState(), res.Output)
				want := snap.Stats()
				want.Add(l.FinalPrefix)
				if res.Stats != want {
					t.Errorf("%s point %d: stats %+v, want %+v", label, k, res.Stats, want)
				}
			}
			// Seeking backwards rebuilds the memory image from scratch.
			sd := snap.NewDBT()
			m := r.Machine(0)
			sd.Resume(m, l.Points[0].Prefix)
			res := sd.Finish(m, sd.Advance(m, maxSteps))
			checkAgainstLog(t, label+"/rewind", 0, l, res.Stop.Reason, m.CaptureState(), res.Output)
		}
	}
}

// The same property for native execution, covering the statically
// instrumented techniques (CFCSS, ECCA) and the uninstrumented baseline.
func TestRestoreReproducesReferenceStatic(t *testing.T) {
	p := mustAssemble(t)
	progs := map[string]*isa.Program{"native": p}
	for kind, name := range map[check.StaticKind]string{check.StaticCFCSS: "CFCSS", check.StaticECCA: "ECCA"} {
		ip, err := check.InstrumentStatic(p, kind)
		if err != nil {
			t.Fatal(err)
		}
		progs[name] = ip
	}
	for label, prog := range progs {
		l, err := RecordStatic(prog, nil, 700, maxSteps)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if l.Stop.Reason != cpu.StopHalt {
			t.Fatalf("%s: reference ended with %v", label, l.Stop)
		}
		if len(l.Points) < 3 {
			t.Fatalf("%s: only %d points recorded", label, len(l.Points))
		}
		r := l.NewReplayer()
		// Visit points out of order to exercise backward seeks too.
		for k := len(l.Points) - 1; k >= 0; k-- {
			m := r.Machine(k)
			stop := m.Run(prog.Code, maxSteps)
			checkAgainstLog(t, label, k, l, stop.Reason, m.CaptureState(), m.Output)
		}
	}
}

// One replayer reused across samples restores exactly what a brand-new
// replayer would, whatever the previous sample did to the machine it was
// handed: stores anywhere (pages in no delta, the stack top, the short
// final page), counter and register damage, extra output, a planted fault
// and branch hook, a foreign cost model. Points are visited in the
// campaign engine's order — ascending with repeats — plus one backward
// seek.
func TestReplayerInPlaceRestoreMatchesFresh(t *testing.T) {
	// 70 data words make the final tracking page short.
	p, err := asm.Assemble("ckpt-partial", strings.Replace(workload, ".data 64", ".data 70", 1))
	if err != nil {
		t.Fatal(err)
	}
	tech, _ := check.New("RCF", dbt.UpdateCmov)
	dbtLog, err := Record(warmSnapshot(t, p, dbt.Options{Technique: tech}), 400, maxSteps)
	if err != nil {
		t.Fatal(err)
	}
	nativeLog, err := RecordStatic(p, nil, 400, maxSteps)
	if err != nil {
		t.Fatal(err)
	}
	for label, l := range map[string]*Log{"dbt": dbtLog, "native": nativeLog} {
		if l.MemWords%mem.PageWords == 0 {
			t.Fatalf("%s: %d memory words leave no short final page", label, l.MemWords)
		}
		n := len(l.Points)
		if n < 4 {
			t.Fatalf("%s: only %d points", label, n)
		}
		inDelta := map[uint32]bool{}
		for _, pt := range l.Points {
			for _, pg := range pt.Pages {
				inDelta[pg.Index] = true
			}
		}
		var untouched []uint32 // first word of every page no delta carries
		for pg := uint32(0); pg<<mem.PageShift < l.MemWords; pg++ {
			if !inDelta[pg] {
				untouched = append(untouched, pg<<mem.PageShift)
			}
		}
		if len(untouched) == 0 || len(inDelta) == 0 {
			t.Fatalf("%s: need pages both in and outside deltas", label)
		}
		visits := []int{0, 0, 1, 2, 2, n / 2, n - 1, n - 1, 0, n / 2, n - 1}
		r := l.NewReplayer()
		rng := uint32(7)
		for step, k := range visits {
			m := r.Machine(k)
			fresh := l.NewReplayer().Machine(k)
			tag := fmt.Sprintf("%s visit %d (point %d)", label, step, k)
			if got, want := m.CaptureState(), fresh.CaptureState(); got != want {
				t.Errorf("%s: state %+v, want %+v", tag, got, want)
			}
			if !slices.Equal(m.Mem.Snapshot(), fresh.Mem.Snapshot()) {
				t.Errorf("%s: memory differs from a fresh restore", tag)
			}
			if !slices.Equal(m.Output, fresh.Output) {
				t.Errorf("%s: output %v, want %v", tag, m.Output, fresh.Output)
			}
			if m.Fault != nil || m.BranchHook != nil {
				t.Errorf("%s: fault %v / branch hook set after restore", tag, m.Fault)
			}
			if !reflect.DeepEqual(m.Costs, fresh.Costs) {
				t.Errorf("%s: cost model not reset", tag)
			}

			// The sample: damage everything the next restore must undo.
			addrs := []uint32{l.MemWords - 1, untouched[step%len(untouched)]}
			for i := 0; i < 40; i++ {
				rng = rng*1664525 + 1013904223
				addrs = append(addrs, rng%l.MemWords)
			}
			for _, a := range addrs {
				if err := m.Mem.Store(a, int32(rng)|1); err != nil {
					t.Fatal(err)
				}
			}
			m.Regs[1] ^= 0x55
			m.IP += 3
			m.Steps += 11
			m.Cycles += 13
			m.DirectBranches++
			m.SigChecks += 2
			m.Output = append(m.Output, -1, -2, -3)
			m.Fault = &cpu.Fault{BranchIndex: 1}
			m.BranchHook = func(cpu.BranchEvent) {}
			m.Costs = &cpu.CostModel{DispatchCost: 1}
		}
	}
}

// A restore allocates nothing once the machine's output buffer has grown
// to the longest reference prefix — backward seeks included.
func TestReplayerMachineAllocatesNothing(t *testing.T) {
	l, err := RecordStatic(mustAssemble(t), nil, 400, maxSteps)
	if err != nil {
		t.Fatal(err)
	}
	r := l.NewReplayer()
	last := len(l.Points) - 1
	r.Machine(last)
	if n := testing.AllocsPerRun(20, func() { r.Machine(0); r.Machine(last) }); n != 0 {
		t.Errorf("Machine allocates %.0f times per restore pair, want 0", n)
	}
}

// Restoring at the point chosen for a fault site replays the firing
// exactly: same step, same IP, same direction pair as a full run.
func TestPointSelectionReplaysFiring(t *testing.T) {
	p := mustAssemble(t)
	tech, _ := check.New("RCF", dbt.UpdateCmov)
	snap := warmSnapshot(t, p, dbt.Options{Technique: tech})
	l, err := Record(snap, 300, maxSteps)
	if err != nil {
		t.Fatal(err)
	}
	branches := l.Final.DirectBranches
	for _, bi := range []uint64{0, 1, branches / 3, branches / 2, branches - 1} {
		full := &cpu.Fault{BranchIndex: bi, Kind: cpu.FaultOffsetBit, Bit: 3}
		fd := snap.NewDBT()
		fres := fd.Run(full, maxSteps)

		part := &cpu.Fault{BranchIndex: bi, Kind: cpu.FaultOffsetBit, Bit: 3}
		k := l.PointAtBranch(bi)
		if pt := &l.Points[k]; pt.State.DirectBranches > bi {
			t.Fatalf("branch %d: point %d already past the site (%d)", bi, k, pt.State.DirectBranches)
		}
		sd := snap.NewDBT()
		m := l.NewReplayer().Machine(k)
		m.Fault = part
		sd.Resume(m, l.Points[k].Prefix)
		res := sd.Finish(m, sd.Advance(m, maxSteps))

		if !part.Fired || !full.Fired {
			t.Fatalf("branch %d: fault did not fire (restored %v, full %v)", bi, part.Fired, full.Fired)
		}
		if *part != *full {
			t.Errorf("branch %d: firing differs\nrestored: %+v\nfull:     %+v", bi, *part, *full)
		}
		if res.Stop != fres.Stop || res.Steps != fres.Steps || res.Cycles != fres.Cycles {
			t.Errorf("branch %d: outcome differs: %v/%d/%d vs %v/%d/%d",
				bi, res.Stop, res.Steps, res.Cycles, fres.Stop, fres.Steps, fres.Cycles)
		}
	}
}

// Recording degrades gracefully: an interval longer than the run yields
// just the start point, which restores to a full replay.
func TestSinglePointLog(t *testing.T) {
	p := mustAssemble(t)
	snap := warmSnapshot(t, p, dbt.Options{})
	l, err := Record(snap, maxSteps, maxSteps)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Points) != 1 {
		t.Fatalf("%d points, want 1", len(l.Points))
	}
	sd := snap.NewDBT()
	m := l.NewReplayer().Machine(0)
	sd.Resume(m, l.Points[0].Prefix)
	res := sd.Finish(m, sd.Advance(m, maxSteps))
	checkAgainstLog(t, "single", 0, l, res.Stop.Reason, m.CaptureState(), res.Output)
}

func TestRecordRejectsZeroInterval(t *testing.T) {
	p := mustAssemble(t)
	if _, err := Record(warmSnapshot(t, p, dbt.Options{}), 0, maxSteps); err == nil {
		t.Error("Record accepted interval 0")
	}
	if _, err := RecordStatic(p, nil, 0, maxSteps); err == nil {
		t.Error("RecordStatic accepted interval 0")
	}
}

// reachedStarts returns the block starts a clean compiled run of p
// enters, the set a native campaign freezes its engine over.
func reachedStarts(t *testing.T, p *isa.Program) []uint32 {
	t.Helper()
	eng := comp.NewEngine(p.Code, nil, 0)
	m := cpu.New()
	m.Reset(p)
	if stop := eng.Run(m, p.Code, maxSteps); stop.Reason != cpu.StopHalt {
		t.Fatalf("clean run: %v", stop)
	}
	return eng.Reached()
}

// The recorder keeps a point on every interval boundary and, when the
// boundary falls inside a block, adds one at the next block entry of the
// samples' engine, so a rejoining sample's watch can see it.
func TestRecordCapturesBlockEntries(t *testing.T) {
	p := mustAssemble(t)
	starts := reachedStarts(t, p)
	const interval = 97
	l, err := RecordStatic(p, starts, interval, maxSteps)
	if err != nil {
		t.Fatal(err)
	}
	steps := map[uint64]bool{}
	for _, pt := range l.Points {
		steps[pt.State.Steps] = true
	}
	for s := uint64(interval); s < l.Final.Steps; s += interval {
		if !steps[s] {
			t.Errorf("no point on the boundary at step %d", s)
		}
	}
	entries := 0
	for k, pt := range l.Points[1:] {
		if slices.Contains(starts, pt.State.IP) {
			entries++
			continue
		}
		if k+2 >= len(l.Points) || !slices.Contains(starts, l.Points[k+2].State.IP) {
			t.Errorf("point %d (ip %d) inside a block is not followed by a block-entry point", k+1, pt.State.IP)
		}
	}
	if entries == 0 {
		t.Error("no point landed on a block entry")
	}
}

// Rejoins holds exactly when the restored machine's state, counters
// aside, equals the reference at the point: a clean run from any restore
// rejoins every later point it reaches, and any difference in memory,
// flags or output breaks it. A check allocates nothing.
func TestReplayerRejoins(t *testing.T) {
	p := mustAssemble(t)
	l, err := RecordStatic(p, reachedStarts(t, p), 200, maxSteps)
	if err != nil {
		t.Fatal(err)
	}
	r := l.NewReplayer()
	for k := 0; k+3 < len(l.Points); k += 3 {
		m := r.Machine(k)
		for j := k; j <= k+3; j++ {
			if stop := m.Run(p.Code, l.Points[j].State.Steps); stop.Reason != cpu.StopOutOfSteps {
				t.Fatalf("point %d: clean run stopped with %v", j, stop)
			}
			if !r.Rejoins(j) {
				t.Fatalf("restore %d: clean run does not rejoin point %d", k, j)
			}
		}
	}

	j := len(l.Points) - 1
	m := r.Machine(j - 2)
	m.Run(p.Code, l.Points[j].State.Steps)
	if n := testing.AllocsPerRun(50, func() { r.Rejoins(j) }); n != 0 {
		t.Errorf("Rejoins allocates %.0f times per check, want 0", n)
	}
	if r.Rejoins(j - 1) {
		t.Error("rejoined a point the run has already passed")
	}
	for addr := uint32(0); addr < l.MemWords; addr += l.MemWords / 7 {
		old, _ := m.Mem.Load(addr)
		m.Mem.Store(addr, old^1)
		if r.Rejoins(j) {
			t.Errorf("a flipped word at %d still rejoins", addr)
		}
		m.Mem.Store(addr, old)
		if !r.Rejoins(j) {
			t.Errorf("restoring the word at %d does not rejoin", addr)
		}
	}
	m.Flags ^= 1
	if r.Rejoins(j) {
		t.Error("flipped flags still rejoin")
	}
	m.Flags ^= 1
	m.Output[len(m.Output)-1]++
	if r.Rejoins(j) {
		t.Error("a changed output word still rejoins")
	}
	m.Output[len(m.Output)-1]--
	m.Output = append(m.Output, 0)
	if r.Rejoins(j) {
		t.Error("extra output still rejoins")
	}
}

// rebuild returns the memory image at point k of l, built from a zero
// image by applying the page deltas of points 0..k.
func rebuild(l *Log, k int) []int32 {
	img := make([]int32, l.MemWords)
	for _, pt := range l.Points[:k+1] {
		for _, pg := range pt.Pages {
			copy(img[pg.Index<<mem.PageShift:], pg.Words)
		}
	}
	return img
}

// A replayer reused across logs restores exactly what a rebuild from zero
// gives, seeking forward, backward and onto a log of another memory size
// (larger, then smaller, then larger again within the arrays it kept),
// whatever the previous sample wrote. A reset replayer is a fresh one:
// no log, a zero and clean memory, an empty page table.
func TestPooledReplayerMatchesRebuild(t *testing.T) {
	var logs []*Log
	for _, data := range []string{".data 70", ".data 300", ".data 130", ".data 260"} {
		p, err := asm.Assemble("ckpt-pool", strings.Replace(workload, ".data 64", data, 1))
		if err != nil {
			t.Fatal(err)
		}
		l, err := RecordStatic(p, nil, 300, maxSteps)
		if err != nil {
			t.Fatal(err)
		}
		if len(l.Points) < 4 {
			t.Fatalf("%s: only %d points", data, len(l.Points))
		}
		logs = append(logs, l)
	}
	if logs[0].MemWords >= logs[1].MemWords || logs[2].MemWords >= logs[1].MemWords {
		t.Fatalf("memory sizes %d, %d, %d do not grow then shrink", logs[0].MemWords, logs[1].MemWords, logs[2].MemWords)
	}
	r := logs[0].NewReplayer()
	rng := uint32(11)
	for li, l := range logs {
		if li > 0 {
			r.reset()
			if r.log != nil || r.cur != -1 || r.pages != 0 || r.m.Fault != nil || r.m.Mem != nil {
				t.Fatalf("log %d: reset left log %v, cur %d, pages %d, fault %v", li, r.log, r.cur, r.pages, r.m.Fault)
			}
			if !slices.Equal(r.work.Snapshot(), make([]int32, r.work.Size())) {
				t.Fatalf("log %d: reset left memory non-zero", li)
			}
			if !r.work.Dirty(func(uint32, []int32) bool { return false }) {
				t.Fatalf("log %d: reset left dirty pages", li)
			}
			for p, b := range r.base {
				if b != nil {
					t.Fatalf("log %d: reset left page %d referenced", li, p)
				}
			}
			r.bind(l)
		}
		n := len(l.Points)
		for _, k := range []int{0, 1, n / 2, n / 2, n - 1, 2, n - 1, 0, n / 2} {
			m := r.Machine(k)
			tag := fmt.Sprintf("log %d (%d words) point %d", li, l.MemWords, k)
			if m.Mem.Size() != l.MemWords {
				t.Fatalf("%s: memory of %d words", tag, m.Mem.Size())
			}
			if !slices.Equal(m.Mem.Snapshot(), rebuild(l, k)) {
				t.Errorf("%s: memory differs from a rebuild from zero", tag)
			}
			if got := m.CaptureState(); got != l.Points[k].State {
				t.Errorf("%s: state %+v, want %+v", tag, got, l.Points[k].State)
			}
			// The sample: stores anywhere, the short final page included.
			for i := 0; i < 30; i++ {
				rng = rng*1664525 + 1013904223
				if err := m.Mem.Store(rng%l.MemWords, int32(rng)|1); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Mem.Store(l.MemWords-1, -1); err != nil {
				t.Fatal(err)
			}
			m.Fault = &cpu.Fault{BranchIndex: 1}
		}
	}
	r.Release()
	// Through the pool: whichever replayer comes back restores exactly.
	for _, l := range []*Log{logs[1], logs[0], logs[3]} {
		r := l.NewReplayer()
		for _, k := range []int{len(l.Points) - 1, 1} {
			if m := r.Machine(k); !slices.Equal(m.Mem.Snapshot(), rebuild(l, k)) {
				t.Errorf("pooled replayer over %d words, point %d: memory differs from a rebuild", l.MemWords, k)
			}
		}
		r.Release()
		r.Release() // a second Release must not pool it twice
	}
	a, b := logs[0].NewReplayer(), logs[0].NewReplayer()
	if a == b {
		t.Error("two live replayers share one object")
	}
	a.Release()
	b.Release()
}

// A replayer released on one goroutine is the one NewReplayer hands out
// on another, even across collections: the free list is process-wide and
// holds what it is given, so reusing one allocates nothing.
func TestReleasedReplayerReusedAcrossGoroutines(t *testing.T) {
	l, err := RecordStatic(mustAssemble(t), nil, 300, maxSteps)
	if err != nil {
		t.Fatal(err)
	}
	release, done := make(chan *Replayer), make(chan struct{})
	defer close(release)
	go func() {
		for r := range release {
			r.Release()
			done <- struct{}{}
		}
	}()
	l.NewReplayer().Release()
	allocs := testing.AllocsPerRun(20, func() {
		r := l.NewReplayer()
		r.Machine(len(l.Points) - 1)
		release <- r
		<-done
		runtime.GC()
		runtime.GC()
	})
	if allocs != 0 {
		t.Errorf("a replayer released on another goroutine: NewReplayer allocates %.1f times", allocs)
	}
}

// A decoded log's pages are whole tracking pages: a replayer's page table
// takes each as the page's full contents, so a shorter one is corrupt.
func TestDecodeRejectsPartialPage(t *testing.T) {
	l, err := RecordStatic(mustAssemble(t), nil, 300, maxSteps)
	if err != nil {
		t.Fatal(err)
	}
	k := slices.IndexFunc(l.Points, func(pt Point) bool { return len(pt.Pages) > 0 })
	if k < 0 {
		t.Fatal("no point carries a page")
	}
	pg := &l.Points[k].Pages[0]
	pg.Words = pg.Words[:len(pg.Words)-1]
	if _, err := DecodeLogBytes(l.Encode(testFingerprint), testFingerprint); !errors.Is(err, ErrCorrupt) {
		t.Errorf("a page one word short decoded with %v, want ErrCorrupt", err)
	}
}
