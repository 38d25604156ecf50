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
	return want.stop
}

func TestEngineMatchesRun(t *testing.T) {
	if stop := runBoth(t, engineProgram(t), 1_000_000, nil); stop.Reason != cpu.StopHalt {
		t.Fatalf("stop = %v, want halt", stop)
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
		{Op: isa.OpAddI, RD: isa.EAX, Imm: 1},
		{Op: isa.OpJmp, Imm: -2},
	}
	eng := NewEngine(code, nil, 0)
	eng.Freeze([]uint32{0})
	v := eng.Clone()
	m := cpu.New()
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
	for _, b := range []Backend{BackendAuto, BackendStep, BackendCompile} {
		if got, err := ParseBackend(b.String()); err != nil || got != b {
			t.Errorf("ParseBackend(%q) = %v, %v", b.String(), got, err)
		}
	}
	if _, err := ParseBackend("plan"); err == nil {
		t.Error(`ParseBackend("plan") accepted the retired backend`)
	}
}
