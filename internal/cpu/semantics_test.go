package cpu

import (
	"testing"

	"repro/internal/isa"
)

// runSnippet executes a hand-built instruction sequence, laid out from
// address 1 past the null page, on a fresh machine with a small memory,
// returning the machine for inspection.
func runSnippet(t *testing.T, code []isa.Instr, maxSteps uint64) (*Machine, Stop) {
	t.Helper()
	code = append([]isa.Instr{isa.NullPad}, code...)
	p := &isa.Program{Name: "snippet", Code: code, Entry: 1, DataWords: 64, Target: true}
	m := New()
	m.Reset(p)
	stop := m.Run(code, maxSteps)
	return m, stop
}

func ins(op isa.Op, rd, rs1, rs2 isa.Reg, imm int32) isa.Instr {
	return isa.Instr{Op: op, RD: rd, RS1: rs1, RS2: rs2, Imm: imm}
}

// TestOpcodeSemanticsTable exercises every ALU/data opcode with concrete
// values and checks both results and flags.
func TestOpcodeSemanticsTable(t *testing.T) {
	const (
		A = isa.EAX
		B = isa.EBX
		C = isa.ECX
	)
	cases := []struct {
		name  string
		setup []isa.Instr
		reg   isa.Reg
		want  int32
	}{
		{"mov-rr", []isa.Instr{ins(isa.OpMovRI, B, 0, 0, 7), ins(isa.OpMovRR, A, B, 0, 0)}, A, 7},
		{"add", []isa.Instr{ins(isa.OpMovRI, A, 0, 0, 5), ins(isa.OpMovRI, B, 0, 0, 3), ins(isa.OpAdd, A, B, 0, 0)}, A, 8},
		{"sub", []isa.Instr{ins(isa.OpMovRI, A, 0, 0, 5), ins(isa.OpMovRI, B, 0, 0, 3), ins(isa.OpSub, A, B, 0, 0)}, A, 2},
		{"and", []isa.Instr{ins(isa.OpMovRI, A, 0, 0, 0b1100), ins(isa.OpMovRI, B, 0, 0, 0b1010), ins(isa.OpAnd, A, B, 0, 0)}, A, 0b1000},
		{"andi", []isa.Instr{ins(isa.OpMovRI, A, 0, 0, 0xFF), ins(isa.OpAndI, A, 0, 0, 0x0F)}, A, 0x0F},
		{"or", []isa.Instr{ins(isa.OpMovRI, A, 0, 0, 0b0100), ins(isa.OpMovRI, B, 0, 0, 0b0010), ins(isa.OpOr, A, B, 0, 0)}, A, 0b0110},
		{"ori", []isa.Instr{ins(isa.OpMovRI, A, 0, 0, 1), ins(isa.OpOrI, A, 0, 0, 8)}, A, 9},
		{"xor", []isa.Instr{ins(isa.OpMovRI, A, 0, 0, 0b0110), ins(isa.OpMovRI, B, 0, 0, 0b0011), ins(isa.OpXor, A, B, 0, 0)}, A, 0b0101},
		{"shl", []isa.Instr{ins(isa.OpMovRI, A, 0, 0, 3), ins(isa.OpMovRI, B, 0, 0, 2), ins(isa.OpShl, A, B, 0, 0)}, A, 12},
		{"shr", []isa.Instr{ins(isa.OpMovRI, A, 0, 0, 12), ins(isa.OpMovRI, B, 0, 0, 2), ins(isa.OpShr, A, B, 0, 0)}, A, 3},
		{"shr-logical", []isa.Instr{ins(isa.OpMovRI, A, 0, 0, -1), ins(isa.OpShrI, A, 0, 0, 28)}, A, 15},
		{"mul", []isa.Instr{ins(isa.OpMovRI, A, 0, 0, 6), ins(isa.OpMovRI, B, 0, 0, 7), ins(isa.OpMul, A, B, 0, 0)}, A, 42},
		{"div", []isa.Instr{ins(isa.OpMovRI, A, 0, 0, 42), ins(isa.OpMovRI, B, 0, 0, 5), ins(isa.OpDiv, A, B, 0, 0)}, A, 8},
		{"lea3", []isa.Instr{ins(isa.OpMovRI, A, 0, 0, 10), ins(isa.OpMovRI, B, 0, 0, 20), ins(isa.OpLea3, C, A, B, 3)}, C, 33},
		{"xor3", []isa.Instr{ins(isa.OpMovRI, A, 0, 0, 0b1100), ins(isa.OpMovRI, B, 0, 0, 0b1010), ins(isa.OpXor3, C, A, B, 1)}, C, 0b0111},
		{"test-preserves", []isa.Instr{ins(isa.OpMovRI, A, 0, 0, 5), ins(isa.OpTest, A, A, 0, 0)}, A, 5},
		{"store-load", []isa.Instr{
			ins(isa.OpMovRI, A, 0, 0, 99),
			ins(isa.OpMovRI, B, 0, 0, 10),
			ins(isa.OpStore, 0, B, A, 2), // mem[12] = 99
			ins(isa.OpLoad, C, B, 0, 2),  // ecx = mem[12]
		}, C, 99},
		{"push-pop", []isa.Instr{
			ins(isa.OpMovRI, A, 0, 0, 123),
			ins(isa.OpPush, 0, A, 0, 0),
			ins(isa.OpPop, C, 0, 0, 0),
		}, C, 123},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code := append(append([]isa.Instr{}, c.setup...), isa.Instr{Op: isa.OpHalt})
			m, stop := runSnippet(t, code, 100)
			if stop.Reason != StopHalt {
				t.Fatalf("stop = %v", stop)
			}
			if got := m.Regs[c.reg]; got != c.want {
				t.Errorf("%s = %d, want %d", c.reg, got, c.want)
			}
		})
	}
}

func TestPushfPopfRoundTrip(t *testing.T) {
	// cmp sets flags; pushf saves; a clobbering cmp changes them; popf
	// restores the originals.
	code := []isa.Instr{
		ins(isa.OpMovRI, isa.EAX, 0, 0, 1),
		ins(isa.OpCmpI, isa.EAX, 0, 0, 1), // Z set
		{Op: isa.OpPushF},
		ins(isa.OpCmpI, isa.EAX, 0, 0, 99), // Z clear, S set
		{Op: isa.OpPopF},
		{Op: isa.OpHalt},
	}
	m, stop := runSnippet(t, code, 100)
	if stop.Reason != StopHalt {
		t.Fatalf("stop = %v", stop)
	}
	if m.Flags&isa.FlagZ == 0 {
		t.Errorf("popf did not restore Z: flags = %v", m.Flags)
	}
	if m.Regs[isa.ESP] != int32(m.Mem.Size()) {
		t.Error("pushf/popf unbalanced the stack")
	}
}

func TestFlagsAfterArithmetic(t *testing.T) {
	cases := []struct {
		name string
		code []isa.Instr
		set  isa.Flags
		clr  isa.Flags
	}{
		{"add-zero", []isa.Instr{ins(isa.OpMovRI, isa.EAX, 0, 0, -3), ins(isa.OpAddI, isa.EAX, 0, 0, 3)}, isa.FlagZ, isa.FlagS},
		{"sub-negative", []isa.Instr{ins(isa.OpMovRI, isa.EAX, 0, 0, 2), ins(isa.OpSubI, isa.EAX, 0, 0, 5)}, isa.FlagS, isa.FlagZ},
		{"and-zero", []isa.Instr{ins(isa.OpMovRI, isa.EAX, 0, 0, 5), ins(isa.OpAndI, isa.EAX, 0, 0, 2)}, isa.FlagZ, isa.FlagS | isa.FlagC},
		{"mul-negative", []isa.Instr{ins(isa.OpMovRI, isa.EAX, 0, 0, -2), ins(isa.OpMovRI, isa.EBX, 0, 0, 3), ins(isa.OpMul, isa.EAX, isa.EBX, 0, 0)}, isa.FlagS, isa.FlagZ},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code := append(append([]isa.Instr{}, c.code...), isa.Instr{Op: isa.OpHalt})
			m, stop := runSnippet(t, code, 100)
			if stop.Reason != StopHalt {
				t.Fatalf("stop = %v", stop)
			}
			if m.Flags&c.set != c.set {
				t.Errorf("flags %v missing %v", m.Flags, c.set)
			}
			if m.Flags&c.clr != 0 {
				t.Errorf("flags %v should clear %v", m.Flags, c.clr)
			}
		})
	}
}

func TestRegBitFault(t *testing.T) {
	code := []isa.Instr{
		isa.NullPad,
		ins(isa.OpMovRI, isa.EAX, 0, 0, 0), // step 0
		ins(isa.OpNop, 0, 0, 0, 0),         // step 1 (fault fires before this)
		ins(isa.OpOut, 0, isa.EAX, 0, 0),   // step 2
		{Op: isa.OpHalt},
	}
	p := &isa.Program{Name: "regfault", Code: code, Entry: 1, DataWords: 8, Target: true}
	m := New()
	m.Reset(p)
	m.Fault = &Fault{Kind: FaultRegBit, StepIndex: 1, Reg: isa.EAX, Bit: 4}
	stop := m.Run(code, 100)
	if stop.Reason != StopHalt {
		t.Fatalf("stop = %v", stop)
	}
	if !m.Fault.Fired {
		t.Fatal("register fault did not fire")
	}
	if len(m.Output) != 1 || m.Output[0] != 16 {
		t.Errorf("output = %v, want [16] (bit 4 flipped)", m.Output)
	}
	if m.Fault.FiredStep != 1 {
		t.Errorf("fired step = %d", m.Fault.FiredStep)
	}
}

func TestRegBitFaultDoesNotTriggerOnBranches(t *testing.T) {
	// A register fault must not consume the branch-fault path even when
	// BranchIndex is zero.
	code := []isa.Instr{
		isa.NullPad,
		ins(isa.OpMovRI, isa.ECX, 0, 0, 2),
		ins(isa.OpSubI, isa.ECX, 0, 0, 1), // loop body
		ins(isa.OpCmpI, isa.ECX, 0, 0, 0),
		{Op: isa.OpJcc, RD: isa.Reg(isa.CondGT), Imm: -3},
		{Op: isa.OpHalt},
	}
	p := &isa.Program{Name: "t", Code: code, Entry: 1, DataWords: 8, Target: true}
	m := New()
	m.Reset(p)
	m.Fault = &Fault{Kind: FaultRegBit, StepIndex: 1 << 40, Reg: isa.EAX, Bit: 0}
	if stop := m.Run(code, 1000); stop.Reason != StopHalt {
		t.Fatalf("stop = %v", stop)
	}
	if m.Fault.Fired {
		t.Error("far-future register fault fired early")
	}
}

func TestCmovNotTaken(t *testing.T) {
	code := []isa.Instr{
		ins(isa.OpMovRI, isa.EAX, 0, 0, 1),
		ins(isa.OpMovRI, isa.EBX, 0, 0, 42),
		ins(isa.OpCmpI, isa.EAX, 0, 0, 0), // 1 != 0
		ins(isa.OpCmov, isa.EAX, isa.EBX, isa.Reg(isa.CondEQ), 0),
		{Op: isa.OpHalt},
	}
	m, stop := runSnippet(t, code, 100)
	if stop.Reason != StopHalt || m.Regs[isa.EAX] != 1 {
		t.Errorf("cmov not-taken: eax = %d stop %v", m.Regs[isa.EAX], stop)
	}
}

func TestStackUnderflowTraps(t *testing.T) {
	// Pop with SP at the top of memory reads beyond the mapped region.
	code := []isa.Instr{
		ins(isa.OpPop, isa.EAX, 0, 0, 0),
		{Op: isa.OpHalt},
	}
	_, stop := runSnippet(t, code, 100)
	if stop.Reason != StopBadMemory {
		t.Fatalf("stop = %v, want bad-memory", stop)
	}
}

func TestPushfStackOverflowTraps(t *testing.T) {
	// Exhaust the stack with pushf in a loop.
	code := []isa.Instr{
		{Op: isa.OpPushF},
		{Op: isa.OpJmp, Imm: -2},
	}
	_, stop := runSnippet(t, code, 10_000_000)
	if stop.Reason != StopBadMemory {
		t.Fatalf("stop = %v, want bad-memory", stop)
	}
}

func TestFSubAndFDiv(t *testing.T) {
	// 6.0f - 2.0f = 4.0f; 4.0f / 2.0f = 2.0f.
	code := []isa.Instr{
		ins(isa.OpMovRI, isa.EAX, 0, 0, 0x40C00000), // 6.0
		ins(isa.OpMovRI, isa.EBX, 0, 0, 0x40000000), // 2.0
		ins(isa.OpFSub, isa.EAX, isa.EBX, 0, 0),     // 4.0
		ins(isa.OpFDiv, isa.EAX, isa.EBX, 0, 0),     // 2.0
		{Op: isa.OpHalt},
	}
	m, stop := runSnippet(t, code, 100)
	if stop.Reason != StopHalt {
		t.Fatal(stop)
	}
	if uint32(m.Regs[isa.EAX]) != 0x40000000 {
		t.Errorf("fp result = %#x, want 2.0f", uint32(m.Regs[isa.EAX]))
	}
	// Negative / 0 -> -Inf.
	code2 := []isa.Instr{
		ins(isa.OpMovRI, isa.EAX, 0, 0, int32(-1098907648)), // -6.0f bits
		ins(isa.OpMovRI, isa.EBX, 0, 0, 0),
		ins(isa.OpFDiv, isa.EAX, isa.EBX, 0, 0),
		{Op: isa.OpHalt},
	}
	m2, _ := runSnippet(t, code2, 100)
	if uint32(m2.Regs[isa.EAX]) != 0xFF800000 {
		t.Errorf("neg/0 = %#x, want -Inf", uint32(m2.Regs[isa.EAX]))
	}
}
