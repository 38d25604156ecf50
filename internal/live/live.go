// Package live computes backward dataflow liveness over the basic-block
// graph of internal/cfg: for every instruction address, which condition-flag
// bits and which registers may still be read before they are redefined. The
// fault-injection engines use it to prune provably benign faults — a
// transient bit flip in a flag or register that is dead at its site is
// redefined before any use along every path, so the faulted run's tail is
// the clean run's tail and can be synthesized from the recorded reference
// instead of executed.
//
// The analysis is deliberately conservative at every boundary it cannot see
// through: blocks ending in indirect transfers (ret, jmpr, callr) and
// translator exit stubs (trapout) treat everything as live-out, so a prune
// never reaches across a control transfer the static graph cannot resolve.
// Over-approximating liveness only costs pruning opportunities; it can never
// produce a wrong outcome.
package live

import (
	"repro/internal/cfg"
	"repro/internal/isa"
)

// allRegs is the live-set of all registers (guest and target alike).
const allRegs = uint32(1)<<isa.NumRegs - 1

// allFlags is the live-set of all condition-flag bits.
const allFlags = uint8(isa.FlagMask)

// Info holds the per-instruction liveness facts of one code image.
type Info struct {
	// flagsIn[a] and regsIn[a] are the bits that may be read before being
	// redefined on some path starting at instruction address a (live-in).
	flagsIn []uint8
	regsIn  []uint32
}

// Analyze computes liveness for the program underlying g.
func Analyze(g *cfg.Graph) *Info {
	n := int(g.Prog.Len())
	info := &Info{
		flagsIn: make([]uint8, n),
		regsIn:  make([]uint32, n),
	}
	if n == 0 {
		return info
	}
	code := g.Prog.Code

	// Block-level fixpoint on live-in sets. Iterating blocks in reverse
	// address order converges in a handful of passes on reducible graphs.
	type sets struct {
		flags uint8
		regs  uint32
	}
	in := make([]sets, len(g.Blocks))
	blockOut := func(b *cfg.Block) sets {
		last := code[b.End-1]
		if b.HasIndirectSucc || last.Op == isa.OpTrapOut {
			// Indirect successors and translator exits: anything may be
			// read downstream.
			return sets{flags: allFlags, regs: allRegs}
		}
		var out sets
		for _, s := range b.Succs {
			sb := g.BlockAt(s)
			if sb == nil {
				continue
			}
			out.flags |= in[sb.ID].flags
			out.regs |= in[sb.ID].regs
		}
		// Halt/report terminators and falls off the image end contribute
		// nothing: the run is over (or traps) and no state is read.
		return out
	}
	transferBlock := func(b *cfg.Block, out sets) sets {
		for a := int(b.End) - 1; a >= int(b.Start); a-- {
			out.flags, out.regs = transfer(code[a], out.flags, out.regs)
		}
		return out
	}
	for changed := true; changed; {
		changed = false
		for i := len(g.Blocks) - 1; i >= 0; i-- {
			b := g.Blocks[i]
			ni := transferBlock(b, blockOut(b))
			if ni != in[b.ID] {
				in[b.ID] = ni
				changed = true
			}
		}
	}

	// Materialize per-instruction live-in sets with one more backward walk
	// per block, now against the converged block live-outs.
	for _, b := range g.Blocks {
		out := blockOut(b)
		for a := int(b.End) - 1; a >= int(b.Start); a-- {
			out.flags, out.regs = transfer(code[a], out.flags, out.regs)
			info.flagsIn[a] = out.flags
			info.regsIn[a] = out.regs
		}
	}
	return info
}

// AnalyzeCode computes liveness for a bare instruction slice (the DBT code
// cache), entry at address 0.
func AnalyzeCode(code []isa.Instr) *Info {
	return Analyze(cfg.Build(&isa.Program{Name: "cache", Code: code}))
}

// FlagsOnly returns the flag half of i: FlagBitDead answers as before and
// RegDead never proves a register dead. It is for callers that keep
// liveness long-lived but never prune register faults.
func (i *Info) FlagsOnly() *Info { return &Info{flagsIn: i.flagsIn} }

// FlagBitDead reports whether flag bit (0..NumFlagBits-1) is provably dead
// at the entry of the instruction at addr: no path from addr reads it
// before redefining it. Addresses outside the analyzed image are never
// provably dead.
func (i *Info) FlagBitDead(addr uint32, bit uint) bool {
	if addr >= uint32(len(i.flagsIn)) || bit >= isa.NumFlagBits {
		return false
	}
	return i.flagsIn[addr]&(1<<bit) == 0
}

// RegDead reports whether register r is provably dead at the entry of the
// instruction at addr.
func (i *Info) RegDead(addr uint32, r isa.Reg) bool {
	if addr >= uint32(len(i.regsIn)) || int(r) >= isa.NumRegs {
		return false
	}
	return i.regsIn[addr]&(1<<r) == 0
}

// transfer applies one instruction's backward transfer function:
// live-in = (live-out minus kills) union gens.
func transfer(in isa.Instr, flags uint8, regs uint32) (uint8, uint32) {
	// Flags. Every flag writer in the ISA defines all five bits at once
	// (SubFlags/AddFlags/LogicFlags build the register from scratch and
	// popf masks a full stack word), so the kill set is total.
	if in.Op.WritesFlags() {
		flags = 0
	}
	switch in.Op {
	case isa.OpJcc:
		flags |= uint8(in.Cond().FlagsRead())
	case isa.OpCmov:
		flags |= uint8(in.CmovCond().FlagsRead())
	case isa.OpPushF:
		flags = allFlags
	}

	use, def := regUseDef(in)
	regs = regs&^def | use
	return flags, regs
}

// regUseDef returns the register read and write sets of one instruction,
// including the implicit stack-pointer traffic of push/pop/call/ret.
func regUseDef(in isa.Instr) (use, def uint32) {
	rd := uint32(1) << (uint32(in.RD) % uint32(isa.NumRegs))
	rs1 := uint32(1) << (uint32(in.RS1) % uint32(isa.NumRegs))
	rs2 := uint32(1) << (uint32(in.RS2) % uint32(isa.NumRegs))
	const esp = uint32(1) << isa.ESP
	switch in.Op {
	case isa.OpMovRI:
		return 0, rd
	case isa.OpMovRR, isa.OpLea:
		return rs1, rd
	case isa.OpLea3, isa.OpXor3:
		return rs1 | rs2, rd
	case isa.OpLoad:
		return rs1, rd
	case isa.OpStore:
		return rs1 | rs2, 0
	case isa.OpPush:
		return rs1 | esp, esp
	case isa.OpPop:
		return esp, rd | esp
	case isa.OpPushF, isa.OpPopF:
		return esp, esp
	case isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor,
		isa.OpShl, isa.OpShr, isa.OpMul, isa.OpDiv,
		isa.OpFAdd, isa.OpFSub, isa.OpFMul, isa.OpFDiv:
		return rd | rs1, rd
	case isa.OpAddI, isa.OpSubI, isa.OpAndI, isa.OpOrI, isa.OpXorI,
		isa.OpShlI, isa.OpShrI:
		return rd, rd
	case isa.OpCmp, isa.OpTest:
		return rd | rs1, 0
	case isa.OpCmpI:
		return rd, 0
	case isa.OpJrz:
		return rs1, 0
	case isa.OpCall:
		return esp, esp
	case isa.OpRet:
		return esp, esp
	case isa.OpJmpR:
		return rs1, 0
	case isa.OpCallR:
		return rs1 | esp, esp
	case isa.OpCmov:
		// Conditional write: the old destination value may survive, so RD
		// is not killed (and stays live if it was live after).
		return rs1, 0
	case isa.OpOut:
		return rs1, 0
	}
	// nop, halt, jmp, report, trapout and unknown opcodes touch no
	// registers (unknowns trap before reading anything).
	return 0, 0
}
