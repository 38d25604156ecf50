package dbt

import (
	"testing"

	"repro/internal/isa"
)

// TestCheckedByPolicy exercises the check-placement decision for every
// policy against every terminator shape.
func TestCheckedByPolicy(t *testing.T) {
	// A program with a ret block, a back-edge block, and a forward-branch
	// block.
	p := mustAssemble(t, `
main:
    movi ecx, 2
loop:
    subi ecx, 1
    cmpi ecx, 0
    jgt loop          ; back edge -> RET-BE
    cmpi ecx, 5
    jlt fwd           ; forward conditional -> ALLBB only
fwd:
    call fn
    halt
fn:
    ret               ; ret -> RET, RET-BE
`)
	type expect struct {
		guest uint32
		pol   Policy
		want  bool
	}
	d := New(p, Options{})
	// Identify block starts by scanning.
	backEdgeBlock := uint32(2) // "loop" label
	fwdBlock := uint32(5)      // after jgt: cmpi ecx,5; jlt
	retBlock := uint32(0)
	for a, in := range p.Code {
		if in.Op == isa.OpRet {
			retBlock = uint32(a)
		}
	}
	cases := []expect{
		{backEdgeBlock, PolicyAllBB, true},
		{backEdgeBlock, PolicyRetBE, true},
		{backEdgeBlock, PolicyRet, false},
		{backEdgeBlock, PolicyEnd, false},
		{fwdBlock, PolicyAllBB, true},
		{fwdBlock, PolicyRetBE, false},
		{fwdBlock, PolicyRet, false},
		{retBlock, PolicyAllBB, true},
		{retBlock, PolicyRetBE, true},
		{retBlock, PolicyRet, true},
		{retBlock, PolicyEnd, false},
	}
	for _, c := range cases {
		d.opts.Policy = c.pol
		end, term := d.scanBlock(c.guest)
		if got := d.checkedByPolicy(c.guest, end, term); got != c.want {
			t.Errorf("checkedByPolicy(0x%x, %v) = %v, want %v (term %v)",
				c.guest, c.pol, got, c.want, term.Kind)
		}
	}
}

func TestSigOf(t *testing.T) {
	if SigOf(0) != 1 || SigOf(41) != 42 {
		t.Error("SigOf must be guest address + 1 (nonzero signatures)")
	}
}

func TestTBlockString(t *testing.T) {
	tb := &TBlock{GuestStart: 4, CacheStart: 8, CacheEnd: 20}
	if s := tb.String(); s != "block guest=0x4 cache=[0x8,0x14)" {
		t.Errorf("String = %q", s)
	}
	tb.IsTrace = true
	if s := tb.String(); s != "trace guest=0x4 cache=[0x8,0x14)" {
		t.Errorf("String = %q", s)
	}
}

func TestStubString(t *testing.T) {
	s := stub{guest: 7, slot: 3, count: 2}
	if s.String() == "" {
		t.Error("empty stub string")
	}
}

func TestProgAccessor(t *testing.T) {
	p := mustAssemble(t, "halt\n")
	d := New(p, Options{})
	if d.Prog() != p {
		t.Error("Prog accessor broken")
	}
	if d.CacheInstr(1000).Op != isa.OpNop {
		t.Error("out-of-range CacheInstr should be zero value")
	}
}

// TestNoneTechniqueDirect exercises the None technique's plug points
// directly (they are normally bypassed when Options.Technique is nil is
// replaced... they are the default, but Prologue/EmitHead are trivially
// empty; verify the contract).
func TestNoneTechniqueDirect(t *testing.T) {
	n := None{}
	if n.Name() != "none" {
		t.Error("name")
	}
	if n.Prologue(5) != nil {
		t.Error("none prologue must be empty")
	}
	p := mustAssemble(t, "movi eax, 1\nout eax\nhalt\n")
	d := New(p, Options{})
	e := &Emitter{d: d}
	before := e.PC()
	n.EmitHead(e, 0, true)
	n.EmitFinalCheck(e, 0)
	if e.PC() != before {
		t.Error("none emits no instrumentation")
	}
}

// TestEmitterHelpers covers the local-label and helper emitters.
func TestEmitterHelpers(t *testing.T) {
	p := mustAssemble(t, "halt\n")
	d := New(p, Options{})
	e := &Emitter{d: d}
	f := e.JrzFwd(isa.R12)
	e.Report()
	e.Bind(f)
	e.Lea(isa.R12, isa.R12, 5)
	e.Lea3(isa.R12, isa.R12, isa.R15, -1)
	j := e.JmpFwd()
	e.Emit(isa.Instr{Op: isa.OpNop})
	e.Bind(j)
	// Word 0 of the cache is the null page; emission starts at 1.
	code := d.cache
	if code[1].Op != isa.OpJrz || code[1].Target(1) != 3 {
		t.Errorf("jrz fixup wrong: %v", code[1])
	}
	if code[5].Op != isa.OpJmp || code[5].Target(5) != 7 {
		t.Errorf("jmp fixup wrong: %v", code[5])
	}
}
