package comp

import (
	"reflect"
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
)

// guardProgram hand-assembles a loop whose every iteration runs the three
// check shapes a guard compiles: CFCSS's pair of leas, the translator's
// emitCheck (save ECX, lea, guard, restore) and a bare guard (DFC's xor3
// compare). With fail set, a cmov corrupts the CFCSS signature on the
// tenth of twelve iterations, so the next check fails inside a block that
// has long been compiled.
func guardProgram(fail bool) *isa.Program {
	corrupt := isa.Instr{Op: isa.OpNop}
	if fail {
		corrupt = isa.Instr{Op: isa.OpCmov, RD: isa.ESI, RS1: isa.EBP, RS2: isa.Reg(isa.CondEQ)}
	}
	code := []isa.Instr{
		isa.NullPad,
		{Op: isa.OpMovRI, RD: isa.EAX, Imm: 0},
		{Op: isa.OpMovRI, RD: isa.ECX, Imm: 12},
		{Op: isa.OpMovRI, RD: isa.ESI, Imm: 100},
		{Op: isa.OpMovRI, RD: isa.EBX, Imm: 7},
		{Op: isa.OpMovRI, RD: isa.EBP, Imm: 999},
		// loop (6): CFCSS check.
		{Op: isa.OpLea, RD: isa.ESI, RS1: isa.ESI, Imm: 5},
		{Op: isa.OpLea, RD: isa.EDI, RS1: isa.ESI, Imm: -105},
		{Op: isa.OpJrz, RS1: isa.EDI, Imm: 1},
		{Op: isa.OpReport},
		// 10: emitCheck.
		{Op: isa.OpMovRR, RD: isa.EDX, RS1: isa.ECX},
		{Op: isa.OpLea, RD: isa.ECX, RS1: isa.EBX, Imm: -7},
		{Op: isa.OpJrz, RS1: isa.ECX, Imm: 1},
		{Op: isa.OpReport},
		// 14: body, with a bare guard.
		{Op: isa.OpMovRR, RD: isa.ECX, RS1: isa.EDX},
		{Op: isa.OpAdd, RD: isa.EAX, RS1: isa.ECX},
		{Op: isa.OpXor3, RD: isa.EDI, RS1: isa.EAX, RS2: isa.EAX},
		{Op: isa.OpJrz, RS1: isa.EDI, Imm: 1},
		{Op: isa.OpReport},
		// 19: signature restore and loop tail.
		{Op: isa.OpLea, RD: isa.ESI, RS1: isa.ESI, Imm: -5},
		{Op: isa.OpCmpI, RD: isa.ECX, Imm: 3},
		corrupt,
		{Op: isa.OpSubI, RD: isa.ECX, Imm: 1},
		{Op: isa.OpCmpI, RD: isa.ECX, Imm: 0},
		{Op: isa.OpJcc, RD: isa.Reg(isa.CondGT), Imm: isa.OffsetFor(24, 6)},
		{Op: isa.OpOut, RS1: isa.EAX},
		{Op: isa.OpHalt},
	}
	return &isa.Program{Name: "guards", Code: code, Entry: 1, Target: true}
}

// guardContinuations are guardProgram's three guard continuations.
var guardContinuations = []uint32{10, 14, 19}

// guardEngines returns the engines a guard must be exact on: unfrozen at
// promotion thresholds 1 and the default, and a view of a core frozen over
// the starts a clean run reached.
func guardEngines(t *testing.T, p *isa.Program) []*Engine {
	t.Helper()
	warm := NewEngine(p.Code, nil, 0)
	m := cpu.New()
	m.Reset(p)
	warm.Run(m, p.Code, testMaxSteps)
	frozen := NewEngine(p.Code, nil, 0)
	frozen.Freeze(warm.Reached())
	return []*Engine{NewEngine(p.Code, nil, 1), NewEngine(p.Code, nil, 0), frozen.Clone()}
}

// runGuards runs p under the step oracle and every guard engine with the
// budget and fault, requiring identical state, counters, output, Stop and
// fault record. It returns the oracle's outcome.
func runGuards(t *testing.T, p *isa.Program, maxSteps uint64, fault *cpu.Fault) outcome {
	t.Helper()
	run := func(step func(m *cpu.Machine) cpu.Stop) (outcome, *cpu.Fault) {
		m := cpu.New()
		m.Reset(p)
		if fault != nil {
			f := *fault
			m.Fault = &f
		}
		return capture(m, step(m)), m.Fault
	}
	want, wantFault := run(func(m *cpu.Machine) cpu.Stop { return m.Run(p.Code, maxSteps) })
	for i, eng := range guardEngines(t, p) {
		got, gotFault := run(func(m *cpu.Machine) cpu.Stop { return eng.Run(m, p.Code, maxSteps) })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("engine %d, budget %d, fault %+v: differs from Run\n got: %+v\nwant: %+v", i, maxSteps, fault, got, want)
		}
		if (wantFault == nil) != (gotFault == nil) || (wantFault != nil && *wantFault != *gotFault) {
			t.Fatalf("engine %d, budget %d: fault record diverged\n got: %+v\nwant: %+v", i, maxSteps, gotFault, wantFault)
		}
	}
	return want
}

// TestGuardAccounting pins the in-block guard to the step oracle: at
// every step budget, under a branch fault at every direct-branch index
// (so faults land on each guard's jrz as well as on the loop branch), and
// on a failing check. A guard neither ends a compiled block nor starts
// one, yet its continuation stays watchable on both tiers.
func TestGuardAccounting(t *testing.T) {
	p := guardProgram(false)
	clean := runGuards(t, p, testMaxSteps, nil)
	if clean.stop.Reason != cpu.StopHalt || clean.sig != 36 {
		t.Fatalf("clean run: %v after %d checks, want halt after 36", clean.stop, clean.sig)
	}
	for budget := uint64(1); budget <= clean.steps; budget++ {
		runGuards(t, p, budget, nil)
	}
	for idx := uint64(0); idx <= clean.direct; idx++ {
		for _, bit := range []uint{0, 1, 4} {
			runGuards(t, p, 10_000, &cpu.Fault{Kind: cpu.FaultOffsetBit, BranchIndex: idx, Bit: bit})
		}
		runGuards(t, p, 10_000, &cpu.Fault{Kind: cpu.FaultFlagBit, BranchIndex: idx, Bit: 0})
	}
	failed := runGuards(t, guardProgram(true), testMaxSteps, nil)
	if failed.stop != (cpu.Stop{Reason: cpu.StopReport, IP: 9}) {
		t.Fatalf("corrupted signature: stop %v, want the CFCSS report at 9", failed.stop)
	}

	v := guardEngines(t, p)[2]
	var starts []uint32
	for _, b := range v.c.blocks {
		starts = append(starts, b.start)
	}
	if want := []uint32{1, 6}; !reflect.DeepEqual(starts, want) {
		t.Fatalf("frozen core compiled blocks at %v, want the entry and the loop %v", starts, want)
	}
	guards := 0
	for _, u := range v.c.byAddr.get(6).uops {
		if u.k == uGuard {
			guards++
		}
	}
	if guards != 3 {
		t.Errorf("the loop compiled %d guard uops, want 3", guards)
	}
	for _, ok := range guardContinuations {
		if v.c.byAddr.get(ok) != nil || !v.BlockStart(ok) {
			t.Errorf("continuation %d: compiled block %v, BlockStart %v; want none and true", ok, v.c.byAddr.get(ok) != nil, v.BlockStart(ok))
		}
	}
}

// An armed watch on a guard continuation stops with exactly the step
// oracle's state on its fifth pass, on the compiled tier (a frozen view)
// and on the interpreted one (a threshold no block reaches).
func TestGuardWatch(t *testing.T) {
	p := guardProgram(false)
	for _, ok := range guardContinuations {
		ref := cpu.New()
		ref.Reset(p)
		for passes := 0; passes < 5; {
			if _, done := ref.Step(p.Code); done {
				t.Fatalf("continuation %d: reference stopped before the fifth pass", ok)
			}
			if ref.IP == ok {
				passes++
			}
		}
		want := capture(ref, cpu.Stop{Reason: cpu.StopWatch, IP: ok})
		want.output = append([]int32(nil), ref.Output...)
		regs := ref.Regs

		for _, v := range []*Engine{guardEngines(t, p)[2], NewEngine(p.Code, nil, 1000)} {
			m := cpu.New()
			m.Reset(p)
			v.Watch(ok, &regs, ^uint64(0))
			if got := capture(m, v.Run(m, p.Code, testMaxSteps)); !reflect.DeepEqual(got, want) {
				t.Fatalf("continuation %d, frozen %v: watch stop differs from the oracle's state\n got: %+v\nwant: %+v",
					ok, v.Frozen(), got, want)
			}
		}
	}
}
