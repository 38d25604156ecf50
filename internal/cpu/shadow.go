package cpu

import "repro/internal/isa"

// LocKind names the kind of a landing location.
type LocKind uint8

// Landing location kinds.
const (
	LocReg LocKind = iota
	LocFlags
	LocMem
)

// Loc is one location of a landing state together with the value it held
// there: a register (Index is its number), the flags register, or a memory
// word (Index is its address).
type Loc struct {
	Kind  LocKind
	Index uint32
	Value int32
}

// Holds reports whether m's location l holds l's value.
func (l Loc) Holds(m *Machine) bool {
	switch l.Kind {
	case LocReg:
		return m.Regs[l.Index] == l.Value
	case LocFlags:
		return int32(m.Flags) == l.Value
	}
	v, err := m.Mem.Load(l.Index)
	return err == nil && v == l.Value
}

// maxSources is the number of landing locations a Shadow can tell apart:
// one bit of a 64-bit label each.
const maxSources = 64

// Shadow steps a machine exactly as Machine.Step does while tracking,
// for every register, the flags and every memory word, which locations of
// the landing state (the machine as Begin found it) its value was computed
// from: dynamic taint tracking at word granularity.
//
//   - Sources are the landing locations the run reads before it writes
//     them. Each gets one bit of a 64-bit label, in read order.
//   - Every written value carries the union of the labels of the values
//     it was computed from, through registers, flags and memory.
//   - Sinks are the values that steer the run or leave it: Jcc and cmov
//     flags, the jrz register, every memory address (the load/store base
//     register, and esp for push, pop, call, callr, ret, pushf and popf),
//     the targets of ret, jmpr and callr, both operands of div, and the
//     operand of out.
//
// Relevant returns the sources whose label reached a sink. Two landings
// at the same IP that agree on those locations take the same path: every
// branch, address, trap and output word is computed from equal values, so
// their stops, counter deltas and output words are equal, whatever the
// rest of their states hold. Tracking is lost, and Relevant reports so,
// past maxSources sources, on an opcode the shadow has no rule for, and
// when a fault is still planted; the run itself stays exact.
type Shadow struct {
	regs       [isa.NumRegs]uint64
	regKnown   uint32 // registers written or sourced since Begin
	flags      uint64
	flagsKnown bool
	// Memory labels, valid where memStamp equals stamp, so Begin clears
	// nothing.
	mem      []uint64
	memStamp []uint32
	stamp    uint32
	sources  []Loc
	sinks    uint64
	lost     bool
}

// Begin takes m's current state as the landing and forgets every label.
func (s *Shadow) Begin(m *Machine) {
	s.regKnown, s.flagsKnown = 0, false
	s.sources, s.sinks = s.sources[:0], 0
	s.lost = m.Fault != nil && !m.Fault.Fired
	if n := int(m.Mem.Size()); n != len(s.mem) {
		s.mem, s.memStamp, s.stamp = make([]uint64, n), make([]uint32, n), 0
	}
	if s.stamp++; s.stamp == 0 {
		clear(s.memStamp)
		s.stamp = 1
	}
}

// Run executes from the current IP like Machine.Run until a terminator,
// trap or the step budget, while tracking holds. It returns done=false,
// with the machine at a step boundary, as soon as tracking is lost, so the
// caller can finish the run on a faster engine.
func (s *Shadow) Run(m *Machine, code []isa.Instr, maxSteps uint64) (Stop, bool) {
	for !s.lost {
		if m.Steps >= maxSteps {
			return Stop{Reason: StopOutOfSteps, IP: m.IP}, true
		}
		if stop, done := s.Step(m, code); done {
			return stop, true
		}
	}
	return Stop{}, false
}

// Step executes one instruction exactly as m.Step does and moves the
// labels it reads and writes.
func (s *Shadow) Step(m *Machine, code []isa.Instr) (Stop, bool) {
	if !s.lost && m.IP < uint32(len(code)) && !s.rule(m, code[m.IP]) {
		s.lost = true
	}
	return m.Step(code)
}

// Relevant appends to dst the sources whose label reached a sink, with
// their landing values, in read order. ok is false when tracking was lost.
func (s *Shadow) Relevant(dst []Loc) ([]Loc, bool) {
	if s.lost {
		return dst, false
	}
	for i, l := range s.sources {
		if s.sinks&(1<<i) != 0 {
			dst = append(dst, l)
		}
	}
	return dst, true
}

// Sources returns the landing locations read so far, in read order (bit
// i of a label stands for the i-th). The slice is valid until Begin.
func (s *Shadow) Sources() []Loc { return s.sources }

// source assigns the next label bit to landing location l.
func (s *Shadow) source(l Loc) uint64 {
	if len(s.sources) == maxSources {
		s.lost = true
		return 0
	}
	s.sources = append(s.sources, l)
	return 1 << (len(s.sources) - 1)
}

func (s *Shadow) reg(m *Machine, r isa.Reg) uint64 {
	if s.regKnown&(1<<r) == 0 {
		s.regKnown |= 1 << r
		s.regs[r] = s.source(Loc{Kind: LocReg, Index: uint32(r), Value: m.Regs[r]})
	}
	return s.regs[r]
}

func (s *Shadow) setReg(r isa.Reg, l uint64) {
	s.regKnown |= 1 << r
	s.regs[r] = l
}

func (s *Shadow) flag(m *Machine) uint64 {
	if !s.flagsKnown {
		s.flagsKnown = true
		s.flags = s.source(Loc{Kind: LocFlags, Value: int32(m.Flags)})
	}
	return s.flags
}

func (s *Shadow) setFlags(l uint64) {
	s.flagsKnown = true
	s.flags = l
}

// load is the label of memory word a; an unmapped word (the step traps)
// has none.
func (s *Shadow) load(m *Machine, a uint32) uint64 {
	if a >= uint32(len(s.mem)) {
		return 0
	}
	if s.memStamp[a] != s.stamp {
		s.memStamp[a] = s.stamp
		v, _ := m.Mem.Load(a)
		s.mem[a] = s.source(Loc{Kind: LocMem, Index: a, Value: v})
	}
	return s.mem[a]
}

func (s *Shadow) store(a uint32, l uint64) {
	if a < uint32(len(s.mem)) {
		s.memStamp[a] = s.stamp
		s.mem[a] = l
	}
}

// sp is the label of esp, which addresses the stack: a sink.
func (s *Shadow) sp(m *Machine) uint64 {
	l := s.reg(m, isa.ESP)
	s.sinks |= l
	return l
}

// rule moves the labels of one instruction, before Step executes it, from
// the machine's current values; every read happens before any write, as
// in Step. It reports false for an opcode it has no rule for.
func (s *Shadow) rule(m *Machine, in isa.Instr) bool {
	r := &m.Regs
	esp := uint32(r[isa.ESP])
	switch in.Op {
	case isa.OpNop, isa.OpHalt, isa.OpReport, isa.OpTrapOut, isa.OpJmp:
	case isa.OpMovRI:
		s.setReg(in.RD, 0)
	case isa.OpMovRR, isa.OpLea:
		s.setReg(in.RD, s.reg(m, in.RS1))
	case isa.OpLea3, isa.OpXor3:
		s.setReg(in.RD, s.reg(m, in.RS1)|s.reg(m, in.RS2))
	case isa.OpLoad:
		s.sinks |= s.reg(m, in.RS1)
		s.setReg(in.RD, s.load(m, uint32(r[in.RS1]+in.Imm)))
	case isa.OpStore:
		s.sinks |= s.reg(m, in.RS1)
		s.store(uint32(r[in.RS1]+in.Imm), s.reg(m, in.RS2))
	case isa.OpPush:
		s.sp(m)
		s.store(esp-1, s.reg(m, in.RS1))
	case isa.OpPop:
		s.sp(m)
		s.setReg(in.RD, s.load(m, esp))
	case isa.OpPushF:
		s.sp(m)
		s.store(esp-1, s.flag(m))
	case isa.OpPopF:
		s.sp(m)
		s.setFlags(s.load(m, esp))
	case isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor,
		isa.OpShl, isa.OpShr, isa.OpMul:
		l := s.reg(m, in.RD) | s.reg(m, in.RS1)
		s.setReg(in.RD, l)
		s.setFlags(l)
	case isa.OpDiv:
		l := s.reg(m, in.RD) | s.reg(m, in.RS1)
		s.sinks |= l
		s.setReg(in.RD, l)
		s.setFlags(l)
	case isa.OpAddI, isa.OpSubI, isa.OpAndI, isa.OpOrI, isa.OpXorI,
		isa.OpShlI, isa.OpShrI:
		s.setFlags(s.reg(m, in.RD))
	case isa.OpCmp, isa.OpTest:
		s.setFlags(s.reg(m, in.RD) | s.reg(m, in.RS1))
	case isa.OpCmpI:
		s.setFlags(s.reg(m, in.RD))
	case isa.OpFAdd, isa.OpFSub, isa.OpFMul, isa.OpFDiv:
		s.setReg(in.RD, s.reg(m, in.RD)|s.reg(m, in.RS1))
	case isa.OpJcc:
		s.sinks |= s.flag(m)
	case isa.OpJrz:
		s.sinks |= s.reg(m, in.RS1)
	case isa.OpCall:
		// Step pushes only when the call leaves the fall-through; esp is
		// a sink either way, as live counts it a use.
		s.sp(m)
		if in.Target(m.IP) != m.IP+1 {
			s.store(esp-1, 0)
		}
	case isa.OpRet:
		s.sp(m)
		s.sinks |= s.load(m, esp)
	case isa.OpJmpR:
		s.sinks |= s.reg(m, in.RS1)
	case isa.OpCallR:
		s.sp(m)
		s.sinks |= s.reg(m, in.RS1)
		s.store(esp-1, 0)
	case isa.OpCmov:
		s.sinks |= s.flag(m)
		l := s.reg(m, in.RS1)
		if in.CmovCond().Eval(m.Flags) {
			s.setReg(in.RD, l)
		}
	case isa.OpOut:
		s.sinks |= s.reg(m, in.RS1)
	default:
		return false
	}
	return true
}
