package cpu

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

func mustAssemble(t *testing.T, src string) *isa.Program {
	t.Helper()
	p, err := asm.Assemble("test", src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunSum(t *testing.T) {
	p := mustAssemble(t, `
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
`)
	m := New()
	stop := m.RunProgram(p, 1_000_000)
	if stop.Reason != StopHalt {
		t.Fatalf("stop = %v", stop)
	}
	if len(m.Output) != 1 || m.Output[0] != 55 {
		t.Errorf("output = %v, want [55]", m.Output)
	}
	if m.Steps == 0 || m.Cycles == 0 {
		t.Error("no accounting")
	}
	// 10 loop iterations, one conditional branch each.
	if m.DirectBranches != 10 {
		t.Errorf("direct branches = %d, want 10", m.DirectBranches)
	}
}

func TestCallRetAndStack(t *testing.T) {
	p := mustAssemble(t, `
.data 16
main:
    movi eax, 7
    call double
    call double
    out eax
    halt
double:
    add eax, eax
    ret
`)
	m := New()
	stop := m.RunProgram(p, 10_000)
	if stop.Reason != StopHalt {
		t.Fatalf("stop = %v", stop)
	}
	if m.Output[0] != 28 {
		t.Errorf("output = %v, want [28]", m.Output)
	}
	// Stack pointer restored.
	if m.Regs[isa.ESP] != int32(m.Mem.Size()) {
		t.Errorf("esp = %d, want %d", m.Regs[isa.ESP], m.Mem.Size())
	}
}

func TestIndirectCall(t *testing.T) {
	p := mustAssemble(t, `
main:
    movi ecx, =fn
    callr ecx
    out eax
    halt
fn:
    movi eax, 123
    ret
`)
	m := New()
	if stop := m.RunProgram(p, 10_000); stop.Reason != StopHalt {
		t.Fatalf("stop = %v", stop)
	}
	if m.Output[0] != 123 {
		t.Errorf("output = %v", m.Output)
	}
}

func TestIndirectJumpTable(t *testing.T) {
	p := mustAssemble(t, `
main:
    movi ecx, =case1
    jmpr ecx
case0:
    movi eax, 0
    jmp done
case1:
    movi eax, 1
    jmp done
done:
    out eax
    halt
`)
	m := New()
	if stop := m.RunProgram(p, 10_000); stop.Reason != StopHalt {
		t.Fatalf("stop = %v", stop)
	}
	if m.Output[0] != 1 {
		t.Errorf("output = %v", m.Output)
	}
}

func TestDivZeroTrap(t *testing.T) {
	p := mustAssemble(t, `
    movi eax, 5
    movi ebx, 0
    div eax, ebx
    halt
`)
	m := New()
	if stop := m.RunProgram(p, 100); stop.Reason != StopDivZero {
		t.Fatalf("stop = %v, want div-zero", stop)
	}
}

func TestBadFetchTrap(t *testing.T) {
	// Fall off the end of the code region: hardware protection catches it.
	p := mustAssemble(t, "nop\nnop\nnop\n")
	m := New()
	stop := m.RunProgram(p, 100)
	if stop.Reason != StopBadFetch {
		t.Fatalf("stop = %v, want bad-fetch", stop)
	}
	if !stop.Reason.IsHardwareTrap() {
		t.Error("bad-fetch should be a hardware trap")
	}
	if StopHalt.IsHardwareTrap() || StopReport.IsHardwareTrap() {
		t.Error("halt/report are not hardware traps")
	}
}

func TestBadMemoryTrap(t *testing.T) {
	p := mustAssemble(t, `
    movi eax, 1
    shli eax, 29
    load ebx, [eax]
    halt
`)
	m := New()
	if stop := m.RunProgram(p, 100); stop.Reason != StopBadMemory {
		t.Fatalf("stop = %v, want bad-memory", stop)
	}
}

func TestOutOfSteps(t *testing.T) {
	p := mustAssemble(t, "spin: jmp spin\n")
	m := New()
	if stop := m.RunProgram(p, 1000); stop.Reason != StopOutOfSteps {
		t.Fatalf("stop = %v, want out-of-steps", stop)
	}
}

// TestNullPageTraps pins the null page: address 0 is never code. A return
// through a stack word the run never wrote (0) traps as a wild fetch, and
// so does a jump there, whatever instruction the image holds at 0.
func TestNullPageTraps(t *testing.T) {
	p := mustAssemble(t, "subi esp, 1\nret\n")
	m := New()
	if stop := m.RunProgram(p, 100); stop.Reason != StopBadFetch || stop.IP != 0 || m.Steps != 2 {
		t.Errorf("ret through an unwritten word: stop = %v after %d steps, want bad-fetch@0 after 2", stop, m.Steps)
	}
	p = &isa.Program{Name: "jmp0", Code: []isa.Instr{
		{Op: isa.OpOut, RS1: isa.EAX},
		{Op: isa.OpJmp, Imm: -2},
	}, Entry: 1}
	if stop := m.RunProgram(p, 100); stop.Reason != StopBadFetch || stop.IP != 0 || len(m.Output) != 0 {
		t.Errorf("jmp to 0: stop = %v, output %v, want bad-fetch@0 and no output", stop, m.Output)
	}
}

func TestInvalidInstr(t *testing.T) {
	p := &isa.Program{Name: "inv", Code: []isa.Instr{isa.NullPad, {Op: isa.Op(200)}}, Entry: 1}
	m := New()
	if stop := m.RunProgram(p, 10); stop.Reason != StopInvalidInstr {
		t.Fatalf("stop = %v, want invalid-instr", stop)
	}
}

func TestFlagsSemantics(t *testing.T) {
	p := mustAssemble(t, `
    movi eax, 5
    cmpi eax, 5
    jeq eq_ok
    halt
eq_ok:
    movi ebx, -3
    cmpi ebx, 2
    jlt lt_ok
    halt
lt_ok:
    ; unsigned: -3 (0xFFFFFFFD) is above 2
    ja  a_ok
    halt
a_ok:
    movi eax, 1
    out eax
    halt
`)
	m := New()
	stop := m.RunProgram(p, 1000)
	if stop.Reason != StopHalt || len(m.Output) != 1 || m.Output[0] != 1 {
		t.Fatalf("stop = %v output = %v", stop, m.Output)
	}
}

func TestLeaPreservesFlags(t *testing.T) {
	// The entire instrumentation strategy depends on lea not clobbering
	// the flags between the compare and the branch.
	p := mustAssemble(t, `
    movi eax, 1
    cmpi eax, 2
    lea ebx, [eax+100]
    jlt ok
    halt
ok:
    out ebx
    halt
`)
	m := New()
	stop := m.RunProgram(p, 1000)
	if stop.Reason != StopHalt || len(m.Output) != 1 || m.Output[0] != 101 {
		t.Fatalf("stop = %v output = %v", stop, m.Output)
	}
}

func TestCmov(t *testing.T) {
	p := mustAssemble(t, `
    movi eax, 1
    movi ebx, 42
    movi ecx, 99
    cmpi eax, 1
    cmoveq ebx, ecx  ; taken: ebx = 99
    cmovne ecx, eax  ; not taken: ecx stays
    out ebx
    out ecx
    halt
`)
	m := New()
	if stop := m.RunProgram(p, 100); stop.Reason != StopHalt {
		t.Fatalf("stop = %v", stop)
	}
	if m.Output[0] != 99 || m.Output[1] != 99 {
		t.Errorf("output = %v, want [99 99]", m.Output)
	}
}

func TestJrz(t *testing.T) {
	p := mustAssemble(t, `
    movi ecx, 0
    jrz ecx, zero
    halt
zero:
    movi ecx, 5
    jrz ecx, bad
    out ecx
    halt
bad:
    halt
`)
	m := New()
	if stop := m.RunProgram(p, 100); stop.Reason != StopHalt {
		t.Fatalf("stop = %v", stop)
	}
	if len(m.Output) != 1 || m.Output[0] != 5 {
		t.Errorf("output = %v", m.Output)
	}
}

func TestFloatOps(t *testing.T) {
	// 3.0f = 0x40400000, 2.0f = 0x40000000; 3*2=6.0f = 0x40C00000.
	p := mustAssemble(t, `
    movi eax, 0x40400000
    movi ebx, 0x40000000
    fmul eax, ebx
    out eax
    fdiv eax, ecx    ; divide by +0 -> +Inf
    out eax
    halt
`)
	m := New()
	if stop := m.RunProgram(p, 100); stop.Reason != StopHalt {
		t.Fatalf("stop = %v", stop)
	}
	if uint32(m.Output[0]) != 0x40C00000 {
		t.Errorf("fmul = %#x", uint32(m.Output[0]))
	}
	if uint32(m.Output[1]) != 0x7F800000 {
		t.Errorf("fdiv by zero = %#x, want +Inf", uint32(m.Output[1]))
	}
}

func TestBranchHook(t *testing.T) {
	p := mustAssemble(t, `
    movi ecx, 3
loop:
    subi ecx, 1
    cmpi ecx, 0
    jgt loop
    halt
`)
	m := New()
	var events []BranchEvent
	m.BranchHook = func(ev BranchEvent) { events = append(events, ev) }
	if stop := m.RunProgram(p, 1000); stop.Reason != StopHalt {
		t.Fatalf("stop = %v", stop)
	}
	if len(events) != 3 {
		t.Fatalf("events = %d, want 3", len(events))
	}
	if !events[0].Taken || !events[1].Taken || events[2].Taken {
		t.Errorf("taken pattern = %v %v %v", events[0].Taken, events[1].Taken, events[2].Taken)
	}
	if events[0].Target != 2 {
		t.Errorf("target = %#x", events[0].Target)
	}
}

func TestOffsetBitFault(t *testing.T) {
	p := mustAssemble(t, `
    movi ecx, 2
loop:
    subi ecx, 1
    cmpi ecx, 0
    jgt loop
    out ecx
    halt
`)
	// Flip bit 4 of the first execution of the jgt (branch index 0):
	// target 1 becomes 1 ^ ... -> wild.
	m := New()
	m.Fault = &Fault{BranchIndex: 0, Kind: FaultOffsetBit, Bit: 20}
	stop := m.RunProgram(p, 10_000)
	if !m.Fault.Fired {
		t.Fatal("fault did not fire")
	}
	if stop.Reason != StopBadFetch {
		t.Fatalf("stop = %v, want bad-fetch (offset bit 20 leaves tiny code region)", stop)
	}
	if m.Fault.CleanTarget == m.Fault.FaultTarget {
		t.Error("fault did not change target")
	}
	if !m.Fault.CleanTaken {
		t.Error("clean direction should be taken")
	}
}

func TestFlagBitFaultFlipsDirection(t *testing.T) {
	p := mustAssemble(t, `
    movi eax, 1
    cmpi eax, 1
    jeq good
    out eax
    halt
good:
    movi ebx, 7
    out ebx
    halt
`)
	// Clean run: jeq taken, outputs 7. Fault: flip the Z flag (bit 2).
	m := New()
	m.Fault = &Fault{BranchIndex: 0, Kind: FaultFlagBit, Bit: 2}
	stop := m.RunProgram(p, 1000)
	if stop.Reason != StopHalt {
		t.Fatalf("stop = %v", stop)
	}
	if !m.Fault.Fired || m.Fault.FaultTaken == m.Fault.CleanTaken {
		t.Fatalf("fault = %+v, want direction flip", m.Fault)
	}
	if len(m.Output) != 1 || m.Output[0] != 1 {
		t.Errorf("output = %v, want mistaken-branch output [1]", m.Output)
	}
}

func TestFaultOnlyFiresOnce(t *testing.T) {
	p := mustAssemble(t, `
    movi ecx, 5
loop:
    subi ecx, 1
    cmpi ecx, 0
    jgt loop
    halt
`)
	m := New()
	// Offset bit 0 on branch 1: the offset is -3 (0xFFFFFFFD); bit 0
	// flip gives -4 -> target 1 (begin of program, past the null page).
	m.Fault = &Fault{BranchIndex: 1, Kind: FaultOffsetBit, Bit: 0}
	stop := m.RunProgram(p, 10_000)
	if stop.Reason != StopHalt {
		t.Fatalf("stop = %v", stop)
	}
	// Jumping to 1 re-runs movi ecx,5 -> loop runs again cleanly.
	if m.Fault.FaultTarget != 1 {
		t.Errorf("fault target = %#x, want 1", m.Fault.FaultTarget)
	}
	// Two branches before the fault restarts the program, then five more
	// in the clean re-run of the loop.
	if got := m.DirectBranches; got != 7 {
		t.Errorf("direct branches = %d, want 7", got)
	}
}

func TestResetClearsState(t *testing.T) {
	p := mustAssemble(t, "movi eax, 9\nout eax\nhalt\n")
	m := New()
	m.RunProgram(p, 100)
	first := m.Cycles
	m.RunProgram(p, 100)
	if m.Cycles != first {
		t.Errorf("cycles after reset = %d, want %d", m.Cycles, first)
	}
	if len(m.Output) != 1 {
		t.Errorf("output not reset: %v", m.Output)
	}
}

func TestCostModelOrdering(t *testing.T) {
	c := DefaultCosts()
	if c.Of(isa.OpLea) != c.Of(isa.OpMovRR) {
		t.Error("lea and mov should cost the same (paper's substitution argument)")
	}
	if c.Of(isa.OpCmov) <= c.Of(isa.OpJcc) {
		t.Error("cmov must cost more than a branch (Figure 14 gap)")
	}
	if c.Of(isa.OpDiv) < 10*c.Of(isa.OpAdd) {
		t.Error("div must be prohibitive (ECCA rejection argument)")
	}
	if c.Of(isa.OpFMul) <= c.Of(isa.OpMul) {
		t.Error("fp ops must be longer-latency than int ops")
	}
	if c.Of(isa.Op(255)) != 1 {
		t.Error("unknown op cost should default to 1")
	}
}

func TestStopStrings(t *testing.T) {
	s := Stop{Reason: StopReport, IP: 0x42, Detail: "x"}
	if s.String() == "" || StopReason(99).String() == "" {
		t.Error("empty stop strings")
	}
	if StopBadFetch.String() != "bad-fetch" {
		t.Errorf("bad-fetch name = %q", StopBadFetch.String())
	}
}
