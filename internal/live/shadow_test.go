package live

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
)

// TestShadowRulesCoverUses pins cpu.Shadow's rule table to this package's
// register use sets: every opcode has a shadow rule, and the registers the
// rule reads from a fresh landing (its register sources) include every
// register the instruction uses. A rule that missed a use would let a
// landing register steer or feed the run without ever becoming a source,
// so the tail memo could match two landings that run differently.
func TestShadowRulesCoverUses(t *testing.T) {
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		in := isa.Instr{Op: op, RD: isa.ECX, RS1: isa.EDX, RS2: isa.EBX}
		switch op {
		case isa.OpJcc:
			in.RD = 0 // a valid condition code
		case isa.OpCmov:
			in.RS2 = 0
		}
		m := &cpu.Machine{Costs: cpu.DefaultCosts(), Mem: mem.New(64)}
		for r := range m.Regs {
			m.Regs[r] = 5 // a mapped address and a nonzero divisor
		}
		m.Regs[isa.ESP] = 32
		code := []isa.Instr{in, {Op: isa.OpHalt}, {Op: isa.OpHalt}}
		var s cpu.Shadow
		s.Begin(m)
		s.Step(m, code)
		if _, ok := s.Relevant(nil); !ok {
			t.Errorf("%v: no shadow rule", op)
			continue
		}
		var read uint32
		for _, l := range s.Sources() {
			if l.Kind == cpu.LocReg {
				read |= 1 << l.Index
			}
		}
		if use, _ := regUseDef(in); use&^read != 0 {
			t.Errorf("%v: rule reads registers %#x, instruction uses %#x", in, read, use)
		}
	}
	// An opcode outside the ISA has no rule: the stepper gives up tracking.
	m := &cpu.Machine{Costs: cpu.DefaultCosts(), Mem: mem.New(64)}
	var s cpu.Shadow
	s.Begin(m)
	s.Step(m, []isa.Instr{{Op: isa.Op(isa.NumOps)}})
	if _, ok := s.Relevant(nil); ok {
		t.Error("an undefined opcode kept tracking")
	}
}
