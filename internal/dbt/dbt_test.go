package dbt

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/comp"
	"repro/internal/cpu"
	"repro/internal/isa"
)

func mustAssemble(t *testing.T, src string) *isa.Program {
	t.Helper()
	p, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

const sumSrc = `
main:
    movi eax, 0
    movi ecx, 10
loop:
    add eax, ecx
    subi ecx, 1
    cmpi ecx, 0
    jgt loop
    out eax
    halt
`

func TestPlainTranslationMatchesNative(t *testing.T) {
	p := mustAssemble(t, sumSrc)
	native := cpu.New()
	nstop := native.RunProgram(p, 1_000_000)
	if nstop.Reason != cpu.StopHalt {
		t.Fatalf("native stop = %v", nstop)
	}

	d := New(p, Options{})
	res := d.Run(nil, 1_000_000)
	if res.Stop.Reason != cpu.StopHalt {
		t.Fatalf("dbt stop = %v", res.Stop)
	}
	if len(res.Output) != 1 || res.Output[0] != 55 {
		t.Errorf("dbt output = %v, want [55]", res.Output)
	}
	if res.Stats.BlocksTranslated == 0 {
		t.Error("no blocks translated")
	}
	// The DBT must cost more cycles than native (translation + dispatch)
	// but not wildly more on this tiny program.
	if res.Cycles <= native.Cycles {
		t.Errorf("dbt cycles %d <= native %d", res.Cycles, native.Cycles)
	}
}

// outputsOf runs a program natively and returns its output (must halt).
func outputsOf(t *testing.T, p *isa.Program) []int32 {
	t.Helper()
	m := cpu.New()
	if stop := m.RunProgram(p, 50_000_000); stop.Reason != cpu.StopHalt {
		t.Fatalf("native stop = %v", stop)
	}
	return append([]int32(nil), m.Output...)
}

const callSrc = `
.data 64
main:
    movi eax, 3
    call work
    call work
    out eax
    halt
work:
    push ebx
    movi ebx, 2
    mul eax, ebx
    pop ebx
    ret
`

func TestCallRetUnderDBT(t *testing.T) {
	p := mustAssemble(t, callSrc)
	want := outputsOf(t, p)
	d := New(p, Options{})
	res := d.Run(nil, 1_000_000)
	if res.Stop.Reason != cpu.StopHalt {
		t.Fatalf("stop = %v", res.Stop)
	}
	if len(res.Output) != len(want) || res.Output[0] != want[0] {
		t.Errorf("output = %v, want %v", res.Output, want)
	}
	if res.Stats.IndirectLookups == 0 {
		t.Error("rets must use the indirect lookup service")
	}
}

const indirectSrc = `
main:
    movi ecx, =fn2
    callr ecx
    movi ecx, =fn1
    callr ecx
    out eax
    halt
fn1:
    addi eax, 1
    ret
fn2:
    addi eax, 10
    ret
`

func TestIndirectCallsUnderDBT(t *testing.T) {
	p := mustAssemble(t, indirectSrc)
	want := outputsOf(t, p)
	d := New(p, Options{})
	res := d.Run(nil, 1_000_000)
	if res.Stop.Reason != cpu.StopHalt {
		t.Fatalf("stop = %v", res.Stop)
	}
	if res.Output[0] != want[0] {
		t.Errorf("output = %v, want %v", res.Output, want)
	}
}

func TestWarmRunsSkipTranslation(t *testing.T) {
	p := mustAssemble(t, sumSrc)
	d := New(p, Options{})
	r1 := d.Run(nil, 1_000_000)
	blocks := d.StatsSnapshot().BlocksTranslated
	r2 := d.Run(nil, 1_000_000)
	if d.StatsSnapshot().BlocksTranslated != blocks {
		t.Error("warm run retranslated blocks")
	}
	if r2.Output[0] != r1.Output[0] {
		t.Error("warm run output differs")
	}
	// Warm run avoids translation cycles.
	if r2.Cycles >= r1.Cycles {
		t.Errorf("warm cycles %d >= cold %d", r2.Cycles, r1.Cycles)
	}
}

func TestChainingReducesDispatches(t *testing.T) {
	p := mustAssemble(t, sumSrc)
	chained := New(p, Options{}).Run(nil, 1_000_000)
	unchained := New(p, Options{NoChaining: true}).Run(nil, 1_000_000)
	if unchained.Stats.Dispatches <= chained.Stats.Dispatches {
		t.Errorf("dispatches: unchained %d <= chained %d",
			unchained.Stats.Dispatches, chained.Stats.Dispatches)
	}
	if unchained.Cycles <= chained.Cycles {
		t.Errorf("cycles: unchained %d <= chained %d", unchained.Cycles, chained.Cycles)
	}
	if unchained.Output[0] != chained.Output[0] {
		t.Error("chaining changed program output")
	}
}

const hotLoopSrc = `
main:
    movi eax, 0
    movi ecx, 500
loop:
    addi eax, 3
    subi eax, 1
    jmp step
step:
    subi ecx, 1
    cmpi ecx, 0
    jgt loop
    out eax
    halt
`

func TestHotTraceFormation(t *testing.T) {
	p := mustAssemble(t, hotLoopSrc)
	want := outputsOf(t, p)

	d := New(p, Options{TraceThreshold: 20})
	res := d.Run(nil, 10_000_000)
	if res.Stop.Reason != cpu.StopHalt {
		t.Fatalf("stop = %v", res.Stop)
	}
	if res.Output[0] != want[0] {
		t.Errorf("output = %v, want %v", res.Output, want)
	}
	if res.Stats.TracesFormed == 0 {
		t.Error("hot loop did not trigger trace formation")
	}

	noTraces := New(p, Options{TraceThreshold: -1}).Run(nil, 10_000_000)
	if noTraces.Stats.TracesFormed != 0 {
		t.Error("TraceThreshold<0 must disable traces")
	}
	if noTraces.Output[0] != want[0] {
		t.Error("trace-free run output differs")
	}
}

func TestTraceSpeedsUpHotLoop(t *testing.T) {
	// The loop body spans two blocks joined by an unconditional jump; the
	// trace merges them and removes the jump+transfer.
	src := `
main:
    movi eax, 0
    movi ecx, 2000
loop:
    addi eax, 1
    jmp second
second:
    subi ecx, 1
    cmpi ecx, 0
    jgt loop
    out eax
    halt
`
	p := mustAssemble(t, src)
	with := New(p, Options{TraceThreshold: 10}).Run(nil, 10_000_000)
	without := New(p, Options{TraceThreshold: -1}).Run(nil, 10_000_000)
	if with.Output[0] != without.Output[0] {
		t.Fatal("trace changed output")
	}
	if with.Cycles >= without.Cycles {
		t.Errorf("trace run %d cycles >= non-trace %d", with.Cycles, without.Cycles)
	}
}

func TestSelfModifyingCode(t *testing.T) {
	src := `
main:
    movi eax, 1
    out eax
    halt
`
	p := mustAssemble(t, src)
	d := New(p, Options{})
	r1 := d.Run(nil, 1000)
	if r1.Output[0] != 1 {
		t.Fatalf("output = %v", r1.Output)
	}
	// The "program" overwrites its own movi with a different constant; the
	// write-protection model invalidates stale translations.
	if err := d.SelfModify(1, isa.Instr{Op: isa.OpMovRI, RD: isa.EAX, Imm: 42}); err != nil {
		t.Fatal(err)
	}
	r2 := d.Run(nil, 1000)
	if r2.Output[0] != 42 {
		t.Errorf("after self-modify output = %v, want [42]", r2.Output)
	}
	if d.StatsSnapshot().Invalidations != 1 {
		t.Error("invalidation not recorded")
	}
	if err := d.SelfModify(1_000_000, isa.Instr{}); err == nil {
		t.Error("out-of-range self-modify should fail")
	}
}

func TestWildGuestTargetTrapsLikeHardware(t *testing.T) {
	// An indirect call through a register holding a non-code address is
	// caught by the (simulated) execute protection.
	src := `
main:
    movi ecx, 99999
    callr ecx
    halt
`
	p := mustAssemble(t, src)
	d := New(p, Options{})
	res := d.Run(nil, 1000)
	if res.Stop.Reason != cpu.StopBadFetch {
		t.Fatalf("stop = %v, want bad-fetch", res.Stop)
	}
	if !res.Detected() {
		t.Error("hardware trap should count as detected")
	}
}

// Guest address 0 is the null page: a return through a stack word the run
// never wrote traps as a wild fetch, while cache word 0 is reserved so
// that a loop back to the first translated block (here the entry block)
// chains as any other, on both backends.
func TestGuestNullPageTraps(t *testing.T) {
	ret0 := mustAssemble(t, "main:\n    subi esp, 1\n    ret\n")
	loop := mustAssemble(t, "main:\n    addi eax, 1\n    cmpi eax, 50\n    jlt main\n    out eax\n    halt\n")
	for _, b := range []comp.Backend{comp.BackendStep, comp.BackendAuto} {
		if res := New(ret0, Options{Backend: b}).Run(nil, 1000); res.Stop.Reason != cpu.StopBadFetch {
			t.Errorf("%v: ret through an unwritten word: stop = %v, want bad-fetch", b, res.Stop)
		}
		d := New(loop, Options{Backend: b})
		res := d.Run(nil, 10_000)
		if res.Stop.Reason != cpu.StopHalt || len(res.Output) != 1 || res.Output[0] != 50 {
			t.Errorf("%v: loop on the entry block: stop %v, output %v; want halt, [50]", b, res.Stop, res.Output)
		}
		if tb, ok := d.Locate(0); ok {
			t.Errorf("%v: cache word 0 holds %v, want the null page", b, tb)
		}
	}
}

func TestLocate(t *testing.T) {
	p := mustAssemble(t, sumSrc)
	d := New(p, Options{})
	d.Run(nil, 1_000_000)
	found := 0
	for addr := uint32(0); addr < uint32(d.CacheLen()); addr++ {
		if tb, ok := d.Locate(addr); ok {
			found++
			if addr < tb.CacheStart || addr >= tb.CacheEnd {
				t.Fatalf("Locate(%d) = %v out of range", addr, tb)
			}
		}
	}
	if found == 0 {
		t.Fatal("Locate found nothing")
	}
	if _, ok := d.Locate(uint32(d.CacheLen()) + 100); ok {
		t.Error("Locate beyond cache should fail")
	}
}

func TestOutOfStepsPropagates(t *testing.T) {
	p := mustAssemble(t, "spin: jmp spin\n")
	d := New(p, Options{})
	res := d.Run(nil, 5000)
	if res.Stop.Reason != cpu.StopOutOfSteps {
		t.Fatalf("stop = %v", res.Stop)
	}
}

func TestPolicyNames(t *testing.T) {
	if PolicyAllBB.String() != "ALLBB" || PolicyRetBE.String() != "RET-BE" ||
		PolicyRet.String() != "RET" || PolicyEnd.String() != "END" {
		t.Error("policy names changed")
	}
	if len(Policies()) != 4 {
		t.Error("policy list wrong")
	}
	if UpdateJcc.String() != "Jcc" || UpdateCmov.String() != "CMOVcc" {
		t.Error("style names changed")
	}
}

func TestFallThroughBlocks(t *testing.T) {
	// A block split by a join leader falls through without a terminator.
	src := `
    cmpi eax, 0
    jeq skip
    addi eax, 1
skip:
    addi eax, 10
    out eax
    halt
`
	p := mustAssemble(t, src)
	want := outputsOf(t, p)
	res := New(p, Options{}).Run(nil, 1000)
	if res.Stop.Reason != cpu.StopHalt || res.Output[0] != want[0] {
		t.Errorf("stop=%v output=%v want %v", res.Stop, res.Output, want)
	}
}

func TestRunsOffCodeEndTraps(t *testing.T) {
	p := &isa.Program{Name: "falloff", Code: []isa.Instr{
		{Op: isa.OpMovRI, RD: isa.EAX, Imm: 1},
		{Op: isa.OpNop},
	}}
	d := New(p, Options{})
	res := d.Run(nil, 1000)
	if res.Stop.Reason != cpu.StopBadFetch {
		t.Fatalf("stop = %v, want bad-fetch", res.Stop)
	}
}
