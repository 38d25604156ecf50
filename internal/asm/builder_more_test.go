package asm

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
)

// TestBuilderEmittersEndToEnd drives every convenience emitter through the
// machine and checks the computed results, pinning builder/opcode pairing.
func TestBuilderEmittersEndToEnd(t *testing.T) {
	b := NewBuilder("alu")
	b.SetDataWords(32)
	b.MovI(isa.EAX, 6)
	b.MovI(isa.EBX, 3)
	b.Add(isa.EAX, isa.EBX)  // 9
	b.AddI(isa.EAX, 1)       // 10
	b.Sub(isa.EAX, isa.EBX)  // 7
	b.Mul(isa.EAX, isa.EBX)  // 21
	b.Div(isa.EAX, isa.EBX)  // 7
	b.Xor(isa.EAX, isa.EBX)  // 4
	b.XorI(isa.EAX, 1)       // 5
	b.Or(isa.EAX, isa.EBX)   // 7
	b.OrI(isa.EAX, 8)        // 15
	b.And(isa.EAX, isa.EBX)  // 3
	b.AndI(isa.EAX, 2)       // 2
	b.ShlI(isa.EAX, 3)       // 16
	b.ShrI(isa.EAX, 1)       // 8
	b.Test(isa.EAX, isa.EAX) // flags only
	b.Cmp(isa.EAX, isa.EBX)  // flags only
	b.Out(isa.EAX)
	// fp: 2.0 * 2.0 = 4.0
	b.MovI(isa.ECX, 0x40000000)
	b.Mov(isa.EDX, isa.ECX)
	b.FMul(isa.ECX, isa.EDX) // 4.0
	b.FSub(isa.ECX, isa.EDX) // 2.0
	b.FAdd(isa.ECX, isa.EDX) // 4.0
	b.FDiv(isa.ECX, isa.EDX) // 2.0
	b.Out(isa.ECX)
	b.Nop()
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := cpu.New()
	if stop := m.RunProgram(p, 1000); stop.Reason != cpu.StopHalt {
		t.Fatalf("stop = %v", stop)
	}
	if m.Output[0] != 8 {
		t.Errorf("int chain = %d, want 8", m.Output[0])
	}
	if uint32(m.Output[1]) != 0x40000000 {
		t.Errorf("fp chain = %#x, want 2.0f", uint32(m.Output[1]))
	}
}

func TestBuilderTargetPrograms(t *testing.T) {
	b := NewBuilder("tgt")
	b.SetTarget()
	b.Emit(isa.Instr{Op: isa.OpMovRI, RD: isa.R12, Imm: 5})
	b.Emit(isa.Instr{Op: isa.OpReport})
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !p.Target {
		t.Error("target flag lost")
	}
}

func TestParserErrorPaths(t *testing.T) {
	bad := []string{
		"add eax",            // want 2 operands
		"add eax, ebx, ecx",  // too many
		"add zork, ebx",      // bad first reg
		"add eax, zork",      // bad second reg
		"jmp 12tooweird!",    // bad label
		"jmp a, b",           // operand count
		".data 1 2",          // operand count
		".data xyz",          // bad integer
		"lea3 eax",           // operand form
		"lea3 eax, [ebx]",    // needs two registers
		"lea3 eax, [zz+ebx]", // bad register
		"load eax, esp",      // not a memory operand
		"load eax, [zz+1]",   // bad base register
		"pushf extra",        // unexpected operand is ignored? must fail
	}
	for _, src := range bad {
		if _, err := Assemble("bad", src+"\nhalt\n"); err == nil {
			t.Errorf("Assemble(%q) should fail", src)
		}
	}
}

func TestAssemblePushfPopf(t *testing.T) {
	p, err := Assemble("flags", `
    movi eax, 1
    cmpi eax, 1
    pushf
    cmpi eax, 99
    popf
    jeq ok
    halt
ok:
    out eax
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	m := cpu.New()
	if stop := m.RunProgram(p, 100); stop.Reason != cpu.StopHalt {
		t.Fatalf("stop = %v", stop)
	}
	if len(m.Output) != 1 {
		t.Errorf("popf did not restore Z for the jeq: output %v", m.Output)
	}
}

func TestCondAliases(t *testing.T) {
	for alias, want := range map[string]isa.Cond{
		"e": isa.CondEQ, "z": isa.CondEQ, "nz": isa.CondNE,
		"l": isa.CondLT, "g": isa.CondGT,
	} {
		src := "j" + alias + " t\nt: halt\n"
		p, err := Assemble("alias", src)
		if err != nil {
			t.Fatalf("%s: %v", alias, err)
		}
		if p.Code[1].Cond() != want {
			t.Errorf("j%s parsed as %v, want %v", alias, p.Code[1].Cond(), want)
		}
	}
}

// Labels bound at one address: the symbol table names the address by
// the smallest of their names, whichever order they are bound in, and
// every label still resolves to the address.
func TestBuilderLabelsAtOneAddress(t *testing.T) {
	for _, order := range [][]string{{"zeta", "b_1f", "alpha"}, {"alpha", "zeta", "b_1f"}, {"b_1f", "alpha", "zeta"}} {
		b := NewBuilder("same")
		b.Nop()
		labels := map[string]Label{}
		for _, name := range order {
			l := b.Named(name)
			if name == "b_1f" {
				l = b.Numbered("b", 0x1f, 16)
			}
			labels[name] = l
			b.Bind(l)
		}
		b.Halt()
		for _, name := range order {
			b.Jmp(labels[name])
		}
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Symbols) != 1 || p.Symbols[2] != "alpha" {
			t.Errorf("order %v: symbols %v, want only 2: alpha", order, p.Symbols)
		}
		for i := range order {
			if at := uint32(3 + i); p.Code[at].Target(at) != 2 {
				t.Errorf("order %v: jmp %d targets %d, want 2", order, i, p.Code[at].Target(at))
			}
		}
	}
}

// A label referenced before its definition (patched at Build) and after
// it (resolved at once) reaches the same address, and numbered labels
// are named in their base.
func TestBuilderReferenceBeforeAndAfterDefinition(t *testing.T) {
	b := NewBuilder("both")
	loop := b.Numbered("loop", 7, 10)
	b.Jmp(loop) // forward: address 1
	b.Nop()
	b.Bind(loop) // address 3
	b.SubI(isa.EAX, 1)
	b.Jcc(isa.CondGT, loop) // backward: address 4
	b.MovLabel(isa.ECX, loop)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Code[1].Target(1); got != 3 {
		t.Errorf("forward jmp targets %d, want 3", got)
	}
	if got := p.Code[4].Target(4); got != 3 {
		t.Errorf("backward jcc targets %d, want 3", got)
	}
	if p.Code[5].Imm != 3 {
		t.Errorf("movi =loop_7 imm = %d, want 3", p.Code[5].Imm)
	}
	if p.Symbols[3] != "loop_7" {
		t.Errorf("symbols %v, want 3: loop_7", p.Symbols)
	}
}
