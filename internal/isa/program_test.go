package isa

import (
	"strings"
	"testing"
)

func sampleProgram() *Program {
	return &Program{
		Name: "sample",
		Code: []Instr{
			NullPad,
			{Op: OpMovRI, RD: EAX, Imm: 1},
			{Op: OpCmpI, RD: EAX, Imm: 0},
			{Op: OpJcc, RD: Reg(CondGT), Imm: -3}, // target 1
			{Op: OpOut, RS1: EAX},
			{Op: OpHalt},
		},
		Entry:     1,
		DataWords: 16,
		Symbols:   map[uint32]string{1: "main", 4: "done"},
	}
}

func TestProgramAccessors(t *testing.T) {
	p := sampleProgram()
	if p.Len() != 6 {
		t.Errorf("len = %d", p.Len())
	}
	if !p.Contains(1) || !p.Contains(5) || p.Contains(6) || p.Contains(0) {
		t.Error("Contains wrong")
	}
	if p.At(4).Op != OpOut {
		t.Error("At wrong")
	}
	if p.SymbolAt(1) != "main" || p.SymbolAt(4) != "done" {
		t.Error("named symbols wrong")
	}
	if got := p.SymbolAt(3); !strings.HasPrefix(got, "0x") {
		t.Errorf("anonymous symbol = %q", got)
	}
}

func TestProgramValidate(t *testing.T) {
	if err := sampleProgram().Validate(); err != nil {
		t.Errorf("sample should validate: %v", err)
	}

	empty := &Program{Name: "empty"}
	if empty.Validate() == nil {
		t.Error("empty program should fail")
	}

	badEntry := sampleProgram()
	badEntry.Entry = 99
	if badEntry.Validate() == nil {
		t.Error("out-of-range entry should fail")
	}

	nullEntry := sampleProgram()
	nullEntry.Entry = 0
	if nullEntry.Validate() == nil {
		t.Error("entry on the null page should fail")
	}

	wild := sampleProgram()
	wild.Code[3].Imm = 1000 // branch target outside image
	if wild.Validate() == nil {
		t.Error("wild branch target should fail")
	}

	null := sampleProgram()
	null.Code[3].Imm = -4 // branch target 0, the null page
	if null.Validate() == nil {
		t.Error("branch to the null page should fail")
	}

	pseudo := sampleProgram()
	pseudo.Code[4] = Instr{Op: OpReport}
	if pseudo.Validate() == nil {
		t.Error("guest binary with pseudo-op should fail")
	}
	pseudo.Target = true
	if err := pseudo.Validate(); err != nil {
		t.Errorf("target program may use pseudo-ops: %v", err)
	}

	targetRegs := sampleProgram()
	targetRegs.Code[1].RD = R12
	if targetRegs.Validate() == nil {
		t.Error("guest binary using target registers should fail")
	}
	targetRegs.Target = true
	if err := targetRegs.Validate(); err != nil {
		t.Errorf("target program may use r12: %v", err)
	}
}

func TestImageLoadRoundTrip(t *testing.T) {
	p := sampleProgram()
	img := p.Image()
	if len(img) != int(p.Len())*InstrBytes {
		t.Fatalf("image size = %d", len(img))
	}
	back, err := LoadImage("back", img, p.Entry, p.DataWords)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != p.Len() || back.DataWords != p.DataWords {
		t.Error("round trip lost metadata")
	}
	for i := range p.Code {
		if back.Code[i] != p.Code[i] {
			t.Errorf("instr %d differs", i)
		}
	}
	if _, err := LoadImage("bad", img[:7], 0, 0); err == nil {
		t.Error("truncated image should fail")
	}
	if _, err := LoadImage("bad", img, 99, 0); err == nil {
		t.Error("bad entry should fail validation")
	}
}

func TestInstrStringsExtended(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpXor3, RD: R15, RS1: EAX, RS2: R8, Imm: 0}, "xor3 r15, eax, r8, 0"},
		{Instr{Op: OpPushF}, "pushf"},
		{Instr{Op: OpPopF}, "popf"},
		{Instr{Op: OpLea3, RD: R12, RS1: R12, RS2: R15, Imm: 1}, "lea3 r12, [r12+r15+1]"},
		{Instr{Op: OpLoad, RD: EAX, RS1: ESP, Imm: -2}, "load eax, [esp-2]"},
		{Instr{Op: OpPush, RS1: EBX}, "push ebx"},
		{Instr{Op: OpPop, RD: EBX}, "pop ebx"},
		{Instr{Op: OpJmp, Imm: 9}, "jmp +9"},
		{Instr{Op: OpCall, Imm: -4}, "call -4"},
		{Instr{Op: OpJmpR, RS1: ECX}, "jmpr ecx"},
		{Instr{Op: OpCallR, RS1: ECX}, "callr ecx"},
		{Instr{Op: OpOut, RS1: EDI}, "out edi"},
		{Instr{Op: OpAddI, RD: EAX, Imm: 3}, "addi eax, 3"},
		{Instr{Op: OpAdd, RD: EAX, RS1: EBX}, "add eax, ebx"},
		{Instr{Op: OpFDiv, RD: EAX, RS1: EBX}, "fdiv eax, ebx"},
		{Instr{Op: OpTrapOut}, "trapout"},
		{Instr{Op: OpNop}, "nop"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.in.Op, got, c.want)
		}
	}
}

func TestNewOpsClassification(t *testing.T) {
	if OpXor3.WritesFlags() {
		t.Error("xor3 must be flag transparent (its whole purpose)")
	}
	if !OpPopF.WritesFlags() {
		t.Error("popf writes flags")
	}
	if OpPushF.WritesFlags() {
		t.Error("pushf reads flags only")
	}
	for _, op := range []Op{OpXor3, OpPushF, OpPopF} {
		if op.IsBranch() || op.IsTerminator() {
			t.Errorf("%v misclassified as control flow", op)
		}
	}
	if Reg(200).Valid() {
		t.Error("register 200 should be invalid")
	}
	if got := Reg(200).String(); !strings.HasPrefix(got, "r?") {
		t.Errorf("invalid reg name = %q", got)
	}
}
