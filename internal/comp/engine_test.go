package comp

import (
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/isa"
)

const engineWorkload = `
main:
    movi eax, 0
    movi ecx, 12
    movi esi, 3
loop:
    add eax, ecx
    push ecx
    call double
    pop ecx
    subi ecx, 1
    cmpi ecx, 0
    jgt loop
    fadd edx, esi
    cmoveq ebx, eax
    out eax
    halt
double:
    movi ebx, 2
    mul ebx, ebx
    out ebx
    ret
`

func engineProgram(t *testing.T) *isa.Program {
	t.Helper()
	p, err := asm.Assemble("engine", engineWorkload)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runBoth executes p under the step oracle (Machine.Run) and under a fresh
// unfrozen engine at each promotion threshold — 1 compiles a block on its
// second entry, the default leaves the loop's early iterations on the
// interpreter — and requires identical state, counters, output, Stop and
// fault record.
func runBoth(t *testing.T, p *isa.Program, maxSteps uint64, fault *cpu.Fault) cpu.Stop {
	t.Helper()
	ref := cpu.New()
	ref.Reset(p)
	if fault != nil {
		f := *fault
		ref.Fault = &f
	}
	want := capture(ref, ref.Run(p.Code, maxSteps))

	for _, threshold := range []int{1, DefaultThreshold} {
		m := cpu.New()
		m.Reset(p)
		if fault != nil {
			f := *fault
			m.Fault = &f
		}
		eng := NewEngine(p.Code, nil, threshold)
		if got := capture(m, eng.Run(m, p.Code, maxSteps)); !reflect.DeepEqual(got, want) {
			t.Fatalf("threshold %d, budget %d, fault %+v: engine differs from Run\n got: %+v\nwant: %+v",
				threshold, maxSteps, fault, got, want)
		}
		if (ref.Fault == nil) != (m.Fault == nil) || (ref.Fault != nil && *ref.Fault != *m.Fault) {
			t.Fatalf("threshold %d: fault record diverged\n got: %+v\nwant: %+v", threshold, m.Fault, ref.Fault)
		}
	}
	if fault == nil {
		return want.stop
	}
	// A fault that asks to pause returns right after its firing step, on
	// the step oracle and on the engine alike, and resuming ends exactly
	// where the uninterrupted run did.
	for _, eng := range []*Engine{nil, NewEngine(p.Code, nil, 1)} {
		m := cpu.New()
		m.Reset(p)
		f := *fault
		f.Pause = true
		m.Fault = &f
		stop := eng.Run(m, p.Code, maxSteps)
		if f.Fired {
			after := f.FiredStep + 1 // a register fault records the count before its step
			if f.Kind != cpu.FaultRegBit {
				after = f.FiredStep // a branch fault, after its step
			}
			if m.Steps != after {
				t.Fatalf("engine %v, fault %+v: returned %v at step %d, want the firing step's end %d",
					eng != nil, f, stop, m.Steps, after)
			}
		}
		if stop.Reason == cpu.StopOutOfSteps {
			stop = eng.Run(m, p.Code, maxSteps)
		}
		f.Pause = false
		if got := capture(m, stop); !reflect.DeepEqual(got, want) || f != *ref.Fault {
			t.Fatalf("engine %v, fault %+v: paused run differs from Run\n got: %+v\nwant: %+v", eng != nil, f, got, want)
		}
	}
	return want.stop
}

func TestEngineMatchesRun(t *testing.T) {
	if stop := runBoth(t, engineProgram(t), 1_000_000, nil); stop.Reason != cpu.StopHalt {
		t.Fatalf("stop = %v, want halt", stop)
	}
}

// No block compiles at address 0, the null page, so a jump there traps
// exactly as on the step oracle, from a chained compiled block as from
// the interpreter, and on a view frozen with 0 among its starts, though
// the word holds an instruction.
func TestEngineNullPageTraps(t *testing.T) {
	code := []isa.Instr{
		{Op: isa.OpOut, RS1: isa.EAX},
		{Op: isa.OpAddI, RD: isa.EAX, Imm: 1},
		{Op: isa.OpCmpI, RD: isa.EAX, Imm: 20},
		{Op: isa.OpJcc, RD: isa.Reg(isa.CondLT), Imm: isa.OffsetFor(3, 1)},
		{Op: isa.OpJmp, Imm: isa.OffsetFor(4, 0)},
	}
	p := &isa.Program{Name: "null", Code: code, Entry: 1, Target: true}
	want := cpu.Stop{Reason: cpu.StopBadFetch, IP: 0}
	if stop := runBoth(t, p, testMaxSteps, nil); stop != want {
		t.Fatalf("stop = %v, want %v", stop, want)
	}
	eng := NewEngine(code, nil, 0)
	eng.Freeze([]uint32{0, 1, 4})
	v := eng.Clone()
	m := cpu.New()
	m.Reset(p)
	if stop := v.Run(m, code, testMaxSteps); stop != want || len(m.Output) != 0 || m.Regs[isa.EAX] != 20 {
		t.Fatalf("frozen view: stop = %v, output %v, eax %d; want %v, none, 20", stop, m.Output, m.Regs[isa.EAX], want)
	}
	if v.BlockStart(0) || v.Stats.ChainHits == 0 {
		t.Errorf("frozen view: block at 0 %v, %d chain hits; want none and some", v.BlockStart(0), v.Stats.ChainHits)
	}
}

func TestEngineOutOfSteps(t *testing.T) {
	p := engineProgram(t)
	for _, budget := range []uint64{0, 1, 2, 3, 5, 7, 11, 17, 23, 40, 97, 150} {
		runBoth(t, p, budget, nil)
	}
}

func TestEngineBranchFaults(t *testing.T) {
	p := engineProgram(t)
	for _, kind := range []cpu.FaultKind{cpu.FaultOffsetBit, cpu.FaultFlagBit} {
		for idx := uint64(0); idx < 30; idx++ {
			for _, bit := range []uint{0, 1, 3, 7, 31} {
				runBoth(t, p, 10_000, &cpu.Fault{Kind: kind, BranchIndex: idx, Bit: bit})
			}
		}
	}
}

func TestEngineRegFaults(t *testing.T) {
	p := engineProgram(t)
	for step := uint64(0); step < 120; step += 7 {
		for _, reg := range []isa.Reg{isa.EAX, isa.ECX, isa.ESP} {
			runBoth(t, p, 10_000, &cpu.Fault{Kind: cpu.FaultRegBit, StepIndex: step, Reg: reg, Bit: 5})
		}
	}
}

// Resuming an unfrozen engine in chunks of growing size must agree with
// one uninterrupted Run: the native checkpoint recorder pauses the same
// engine at every interval boundary, and the budgets here split blocks on
// both tiers at every offset.
func TestEngineChunkedResume(t *testing.T) {
	p := engineProgram(t)
	ref := cpu.New()
	ref.Reset(p)
	want := capture(ref, ref.Run(p.Code, 1_000_000))

	m := cpu.New()
	m.Reset(p)
	eng := NewEngine(p.Code, nil, 1)
	var stop cpu.Stop
	for chunk := uint64(1); ; chunk++ {
		stop = eng.Run(m, p.Code, m.Steps+chunk)
		if stop.Reason != cpu.StopOutOfSteps {
			break
		}
	}
	if got := capture(m, stop); !reflect.DeepEqual(got, want) {
		t.Fatalf("chunked run differs from Run\n got: %+v\nwant: %+v", got, want)
	}
	if eng.Stats.BlocksCompiled == 0 {
		t.Error("chunked run compiled no block")
	}
}

// A frozen view's run must not allocate: a fixed budget over a compiled
// self-loop, chained to itself at the freeze.
func TestFrozenViewZeroAllocs(t *testing.T) {
	code := []isa.Instr{
		isa.NullPad,
		{Op: isa.OpAddI, RD: isa.EAX, Imm: 1},
		{Op: isa.OpJmp, Imm: -2},
	}
	eng := NewEngine(code, nil, 0)
	eng.Freeze([]uint32{1})
	v := eng.Clone()
	m := cpu.New()
	m.IP = 1
	m.Mem = nil // the loop touches no memory
	allocs := testing.AllocsPerRun(100, func() {
		if stop := v.Run(m, code, m.Steps+1024); stop.Reason != cpu.StopOutOfSteps {
			t.Fatalf("stop = %v", stop)
		}
	})
	if allocs != 0 {
		t.Fatalf("frozen view allocates %.1f times per 1024-step run, want 0", allocs)
	}
	if v.Stats.ChainHits == 0 {
		t.Error("the self-loop never took its chain slot")
	}
}

func TestParseBackend(t *testing.T) {
	for _, b := range []Backend{BackendAuto, BackendStep} {
		if got, err := ParseBackend(b.String()); err != nil || got != b {
			t.Errorf("ParseBackend(%q) = %v, %v", b.String(), got, err)
		}
	}
	if got, err := ParseBackend(""); err != nil || got != BackendAuto {
		t.Errorf(`ParseBackend("") = %v, %v`, got, err)
	}
	for _, retired := range []string{"auto", "plan"} {
		if _, err := ParseBackend(retired); err == nil {
			t.Errorf("ParseBackend(%q) accepted a retired backend name", retired)
		}
	}
}
