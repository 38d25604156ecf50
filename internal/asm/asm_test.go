package asm

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder("t")
	b.MovI(isa.EAX, 3)
	b.Bind(b.Named("loop"))
	b.SubI(isa.EAX, 1)
	b.CmpI(isa.EAX, 0)
	b.Jcc(isa.CondGT, b.Named("loop"))
	b.Out(isa.EAX)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Code starts at address 1, after the null page.
	if p.Len() != 7 || p.Code[0] != isa.NullPad || p.Entry != 1 {
		t.Fatalf("len = %d, word 0 = %v, entry = %d", p.Len(), p.Code[0], p.Entry)
	}
	// The jcc at address 4 targets address 2: offset = 2 - 4 - 1 = -3.
	if p.Code[4].Imm != -3 {
		t.Errorf("jcc offset = %d, want -3", p.Code[4].Imm)
	}
	if p.Code[4].Target(4) != 2 {
		t.Errorf("jcc target = %d, want 2", p.Code[4].Target(4))
	}
}

// Build hands out code without append's spare capacity: programs live as
// long as the sessions that run them.
func TestBuildCodeHasNoSpareCapacity(t *testing.T) {
	b := NewBuilder("long")
	for i := 0; i < 1000; i++ {
		b.AddI(isa.EAX, 1)
	}
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Code) != 1002 || cap(p.Code) != len(p.Code) {
		t.Errorf("code len %d, cap %d; want 1002 and no spare capacity", len(p.Code), cap(p.Code))
	}
}

func TestBuilderForwardReference(t *testing.T) {
	b := NewBuilder("fwd")
	b.Jmp(b.Named("end")) // forward
	b.Nop()
	b.Bind(b.Named("end"))
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[1].Target(1) != 3 {
		t.Errorf("forward jmp target = %d, want 3", p.Code[1].Target(1))
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder("bad")
	b.Jmp(b.Named("nowhere"))
	b.Halt()
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "undefined label") {
		t.Errorf("want undefined label error, got %v", err)
	}

	b2 := NewBuilder("dup")
	b2.Bind(b2.Named("x"))
	b2.Nop()
	b2.Bind(b2.Named("x"))
	b2.Halt()
	if _, err := b2.Build(); err == nil || !strings.Contains(err.Error(), "redefined") {
		t.Errorf("want redefinition error, got %v", err)
	}

	b3 := NewBuilder("noentry")
	b3.Halt()
	b3.SetEntry(b3.Named("main"))
	if _, err := b3.Build(); err == nil || !strings.Contains(err.Error(), "entry") {
		t.Errorf("want entry error, got %v", err)
	}
}

func TestBuilderMovLabel(t *testing.T) {
	b := NewBuilder("ml")
	b.MovLabel(isa.ECX, b.Named("fn"))
	b.CallR(isa.ECX)
	b.Halt()
	b.Bind(b.Named("fn"))
	b.Ret()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[1].Imm != 4 {
		t.Errorf("movi =fn imm = %d, want 4 (absolute)", p.Code[1].Imm)
	}
}

func TestBuilderRejectsGuestInvalidRegs(t *testing.T) {
	b := NewBuilder("regs")
	b.Mov(isa.R12, isa.EAX) // target-only register in a guest binary
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Error("guest program using r12 should not validate")
	}
}

const sampleSrc = `
; compute 10+9+...+1 and print it
.data 64
.entry main
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
helper:          ; never called, exercises labels
    push ebp
    pop ebp
    ret
`

func TestAssembleSample(t *testing.T) {
	p, err := Assemble("sample", sampleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if p.DataWords != 64 {
		t.Errorf("data words = %d", p.DataWords)
	}
	if p.Entry != 1 {
		t.Errorf("entry = %d", p.Entry)
	}
	if p.SymbolAt(p.Entry) != "main" {
		t.Errorf("entry symbol = %q", p.SymbolAt(p.Entry))
	}
	// jgt at index 6 back to index 3.
	if p.Code[6].Op != isa.OpJcc || p.Code[6].Cond() != isa.CondGT || p.Code[6].Target(6) != 3 {
		t.Errorf("jgt = %+v", p.Code[6])
	}
}

// allFormsSrc uses every instruction form the assembler accepts.
const allFormsSrc = `
start:
    nop
    movi eax, -5
    mov ebx, eax
    lea ecx, [ebx+4]
    lea3 edx, [eax+ebx-2]
    load esi, [esp]
    store [esp-1], esi
    push eax
    pop edi
    add eax, ebx
    addi eax, 1
    sub eax, ebx
    subi eax, 0x10
    and eax, ebx
    andi eax, 3
    or eax, ebx
    ori eax, 1
    xor eax, ebx
    xori eax, 7
    shl eax, ecx
    shli eax, 2
    shr eax, ecx
    shri eax, 1
    mul eax, ebx
    div eax, ebx
    cmp eax, ebx
    cmpi eax, 9
    test eax, eax
    fadd eax, ebx
    fsub eax, ebx
    fmul eax, ebx
    fdiv eax, ebx
    jmp next
next:
    jne start
    jae start
    jrz ecx, next2
next2:
    call fn
    movi ecx, =fn
    callr ecx
    jmpr edi
fn:
    cmoveq eax, ebx
    out eax
    ret
    halt
`

func TestAssembleAllForms(t *testing.T) {
	p, err := Assemble("forms", allFormsSrc)
	if err != nil {
		t.Fatal(err)
	}
	// Spot checks.
	want := map[int]isa.Op{
		1: isa.OpNop, 2: isa.OpMovRI, 3: isa.OpMovRR, 4: isa.OpLea, 5: isa.OpLea3,
		6: isa.OpLoad, 7: isa.OpStore,
	}
	for idx, op := range want {
		if p.Code[idx].Op != op {
			t.Errorf("instr %d = %v, want op %v", idx, p.Code[idx], op)
		}
	}
	if p.Code[5].RS1 != isa.EAX || p.Code[5].RS2 != isa.EBX || p.Code[5].Imm != -2 {
		t.Errorf("lea3 = %+v", p.Code[5])
	}
	// IA32 alias: jne == jnz parse to CondNE.
	found := false
	for _, in := range p.Code {
		if in.Op == isa.OpCmov && in.CmovCond() == isa.CondEQ {
			found = true
		}
	}
	if !found {
		t.Error("cmoveq not assembled")
	}
}

func TestAssembleErrors(t *testing.T) {
	bad := []string{
		"bogus eax, ebx",
		"movi r99, 1",
		"movi eax",
		"jxx somewhere",
		"lea eax, ebx",
		"store eax, ebx",
		".data -5",
		".entry",
		"9label: nop",
		"movi eax, 99999999999999",
		"cmovqq eax, ebx",
		"jrz ecx, 42", // numeric branch targets not supported in text form
	}
	for _, src := range bad {
		if _, err := Assemble("bad", src+"\nhalt\n"); err == nil {
			t.Errorf("Assemble(%q) should fail", src)
		}
	}
}

func TestAssembleDisassembleRoundTrip(t *testing.T) {
	p, err := Assemble("sample", sampleSrc)
	if err != nil {
		t.Fatal(err)
	}
	text := Disassemble(p)
	if !strings.Contains(text, "main:") || !strings.Contains(text, "jgt loop") {
		t.Errorf("disassembly missing labels:\n%s", text)
	}
	// The disassembly of branch-free instructions must re-assemble to the
	// identical encoding (labels are preserved for branches).
	p2, err := Assemble("sample2", stripComments(text))
	if err != nil {
		t.Fatalf("reassembly failed: %v\n%s", err, text)
	}
	if p2.Len() != p.Len() {
		t.Fatalf("reassembled length %d != %d", p2.Len(), p.Len())
	}
	for i := range p.Code {
		if p.Code[i] != p2.Code[i] {
			t.Errorf("instr %d differs: %v vs %v", i, p.Code[i], p2.Code[i])
		}
	}
}

// stripComments removes the header comment and address columns emitted by
// Disassemble so the text can be re-assembled.
func stripComments(text string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), ";") {
			continue
		}
		// Lines look like "  0x000001  movi eax, 0" or "label:".
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "0x") {
			if i := strings.Index(trimmed, "  "); i >= 0 {
				trimmed = strings.TrimSpace(trimmed[i:])
			}
		}
		out = append(out, trimmed)
	}
	return strings.Join(out, "\n")
}

func TestLabelOnSameLine(t *testing.T) {
	p, err := Assemble("inline", "a: b: movi eax, 1\nhalt\n")
	if err != nil {
		t.Fatal(err)
	}
	if p.Symbols[1] != "a" && p.Symbols[1] != "b" {
		t.Errorf("symbols = %v", p.Symbols)
	}
}
