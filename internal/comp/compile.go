package comp

import "repro/internal/isa"

// uop kinds. Layout matters in two places: the exec switch compiles to a
// dense jump table, and resolveChains treats [uJmp, uDecJcc] as the range of
// terminators carrying chain slots. The in-block kinds that can leave a
// block early without a chain slot (uGuard, then uBr) sit just below that
// range.
const (
	// Straight-line singles (one guest instruction each).
	uMovRI uint8 = iota
	uMovRR
	uLea
	uLea3
	uXor3
	uLoad
	uStore
	uPush
	uPop
	uPushF
	uPopF
	uAdd
	uAddI
	uSub
	uSubI
	uAnd
	uAndI
	uOr
	uOrI
	uXor
	uXorI
	uShl
	uShlI
	uShr
	uShrI
	uMul
	uDiv
	// Flag-elided ALU variants: the result's flags are provably overwritten
	// before any read, trap or block boundary, so the deferral record is
	// skipped entirely.
	uAddNF
	uAddINF
	uSubNF
	uSubINF
	uAndNF
	uAndINF
	uOrNF
	uOrINF
	uXorNF
	uXorINF
	uShlNF
	uShlINF
	uShrNF
	uShrINF
	uMulNF
	uCmp
	uCmpI
	uTest
	uFAdd
	uFSub
	uFMul
	uFDiv
	uCmov
	uOut
	// Fused straight-line superinstructions.
	uLCG       // movi rs1,imm ; mul rd,rs1 ; addi rd,aux
	uLCGNF     // same, addi flags elided
	uMoviMul   // movi rs1,imm ; mul rd,rs1
	uMoviMulNF // same, mul flags elided
	uMoviLoad  // movi rs1,imm ; load rd,[rs1+off] (aux = imm+off precomputed)
	uMoviStore // movi rs1,imm ; store [rs1+off],rs2 (aux = imm+off)
	// Signature-check guard: lea rd,rs1,imm ; lea rs2,rd,aux ; jrz rs2,+1
	// over a report (see Guard). Shorter checks fill the missing leas with
	// identities. A passing check continues inline past the report.
	uGuard
	// Trace-internal unconditional branch (accounting only; the successor's
	// uops follow inline).
	uBr
	// Terminators with chain slots. resolveChains relies on this range.
	uJmp
	uJcc
	uJrz
	uCall
	uCmpJcc  // cmp rd,rs1 ; jcc
	uCmpIJcc // cmpi rd,imm ; jcc
	uTestJcc // test rd,rs1 ; jcc
	uDecJcc  // subi rd,imm ; cmpi rd,aux2 ; jcc
	// Terminators without chain slots.
	uRet
	uJmpR
	uCallR
	uHalt
	uReport
	uTrapOut
)

// uop is one compiled superinstruction. preSteps/preCycles are the guest
// instructions retired and cycles charged from block entry through this
// uop's last member, inclusive — the state a trap at this uop must flush;
// ip is the guest address of the member that can trap or branch.
type uop struct {
	k         uint8
	rd        uint8
	rs1       uint8
	rs2       uint8 // condition code for Jcc/Cmov kinds
	imm       int32
	aux       int32 // second immediate / absolute branch target
	aux2      int32 // third immediate (uDecJcc's compare constant)
	ip        uint32
	preSteps  uint32
	preCycles uint32
	taken     *cblock // chain slot: branch-taken successor
	fall      *cblock // chain slot: fall-through successor
}

// Guard reports whether code[ip] is a signature-check guard: a jrz over
// the next instruction (jrz r,+1) whose fall-through is OpReport, the check
// branch of the paper's Figure 13 and of CFCSS. A guard does not end a
// block on either tier: the compiled tier runs it as an in-block uop that
// leaves the block only when the check fails, and the interpreter runs on
// past it. Its continuation (ip+2) is a watchable point (see BlockStart)
// although no block starts there. Every place that decides block
// boundaries — compilation, the interpreted tier, the watch, checkpoint
// capture and the translator's eager entry set — uses this one rule.
func Guard(code []isa.Instr, ip uint32) bool {
	return ip+2 < uint32(len(code)) && code[ip].Op == isa.OpJrz && code[ip].Imm == 1 &&
		code[ip+1].Op == isa.OpReport
}

// AfterGuard reports whether ip is a guard's continuation.
func AfterGuard(code []isa.Instr, ip uint32) bool { return ip >= 2 && Guard(code, ip-2) }

// endsBlock reports whether the instruction at ip ends a block: a
// terminator other than a guard or the report a guard skips.
func endsBlock(code []isa.Instr, ip uint32) bool {
	return code[ip].Op.IsTerminator() && !Guard(code, ip) && !(ip > 0 && Guard(code, ip-1))
}

// maxTraceInstrs caps how many guest instructions a trace may cover.
const maxTraceInstrs = 192

// trapCapable reports whether the op can stop execution mid-block (memory
// protection, div-zero), forcing an exact flags materialization point.
func trapCapable(op isa.Op) bool {
	switch op {
	case isa.OpLoad, isa.OpStore, isa.OpPush, isa.OpPop, isa.OpPushF, isa.OpPopF, isa.OpDiv:
		return true
	}
	return false
}

// readsFlags reports whether the op observes the flags register.
func readsFlags(op isa.Op) bool {
	return op == isa.OpJcc || op == isa.OpCmov || op == isa.OpPushF
}

// elisionMask computes, for segment [seg, end) with terminator at end, which
// flag-writing instructions may skip their flag deferral: those whose flags
// are overwritten by a later writer in the same segment with no reader, no
// trap-capable instruction and no block boundary in between. The terminator
// itself is a boundary (deferred flags must survive into the next block), so
// elision never crosses it.
func elisionMask(code []isa.Instr, seg, end uint32) []bool {
	el := make([]bool, end-seg)
	for a := seg; a < end; a++ {
		if !code[a].Op.WritesFlags() {
			continue
		}
		for b := a + 1; b < end; b++ {
			op := code[b].Op
			if readsFlags(op) || trapCapable(op) || op.IsTerminator() {
				break
			}
			if op.WritesFlags() {
				el[a-seg] = true
				break
			}
		}
	}
	return el
}

// singleKind maps a straight-line opcode to its uop kind (with the
// flag-elided variant when nf). It returns ok=false for opcodes the
// compiler does not translate standalone (branches, terminators, nop).
func singleKind(op isa.Op, nf bool) (uint8, bool) {
	switch op {
	case isa.OpMovRI:
		return uMovRI, true
	case isa.OpMovRR:
		return uMovRR, true
	case isa.OpLea:
		return uLea, true
	case isa.OpLea3:
		return uLea3, true
	case isa.OpXor3:
		return uXor3, true
	case isa.OpLoad:
		return uLoad, true
	case isa.OpStore:
		return uStore, true
	case isa.OpPush:
		return uPush, true
	case isa.OpPop:
		return uPop, true
	case isa.OpPushF:
		return uPushF, true
	case isa.OpPopF:
		return uPopF, true
	case isa.OpAdd:
		return pick(nf, uAddNF, uAdd), true
	case isa.OpAddI:
		return pick(nf, uAddINF, uAddI), true
	case isa.OpSub:
		return pick(nf, uSubNF, uSub), true
	case isa.OpSubI:
		return pick(nf, uSubINF, uSubI), true
	case isa.OpAnd:
		return pick(nf, uAndNF, uAnd), true
	case isa.OpAndI:
		return pick(nf, uAndINF, uAndI), true
	case isa.OpOr:
		return pick(nf, uOrNF, uOr), true
	case isa.OpOrI:
		return pick(nf, uOrINF, uOrI), true
	case isa.OpXor:
		return pick(nf, uXorNF, uXor), true
	case isa.OpXorI:
		return pick(nf, uXorINF, uXorI), true
	case isa.OpShl:
		return pick(nf, uShlNF, uShl), true
	case isa.OpShlI:
		return pick(nf, uShlINF, uShlI), true
	case isa.OpShr:
		return pick(nf, uShrNF, uShr), true
	case isa.OpShrI:
		return pick(nf, uShrINF, uShrI), true
	case isa.OpMul:
		return pick(nf, uMulNF, uMul), true
	case isa.OpDiv:
		return uDiv, true
	case isa.OpCmp:
		return uCmp, true
	case isa.OpCmpI:
		return uCmpI, true
	case isa.OpTest:
		return uTest, true
	case isa.OpFAdd:
		return uFAdd, true
	case isa.OpFSub:
		return uFSub, true
	case isa.OpFMul:
		return uFMul, true
	case isa.OpFDiv:
		return uFDiv, true
	case isa.OpCmov:
		return uCmov, true
	case isa.OpOut:
		return uOut, true
	}
	return 0, false
}

func pick(nf bool, a, b uint8) uint8 {
	if nf {
		return a
	}
	return b
}

// compileAt compiles the block starting at start into the core. On failure
// the start is poisoned and never retried.
func (e *Engine) compileAt(start uint32) *cblock {
	c := e.c
	cb := e.build(start)
	if cb == nil {
		c.heat[start] = heatPoison
		return nil
	}
	c.byAddr.set(start, cb)
	c.blocks = append(c.blocks, cb)
	e.countCompiled(cb)
	return cb
}

// countCompiled charges one newly compiled block to the engine's stats.
func (e *Engine) countCompiled(cb *cblock) {
	e.Stats.BlocksCompiled++
	if len(cb.spans) > 1 {
		e.Stats.TracePromotions++
	}
}

// build compiles the block starting at start from the engine's code,
// extending across forward unconditional jumps into a trace, without
// registering it anywhere. It returns nil when the block cannot compile,
// which includes a start on the null page: no block starts at address 0,
// so every dispatch and chain slot to it leaves for the interpreter, whose
// fetch traps there.
func (e *Engine) build(start uint32) *cblock {
	if start == 0 {
		return nil
	}
	c := e.c
	code := e.code
	n := uint32(len(code))
	cb := &cblock{start: start}
	var steps, cycles uint32
	seg := start
	visited := []uint32{}
	compiled := false

build:
	for {
		visited = append(visited, seg)
		end := seg
		for end < n && !endsBlock(code, end) {
			end++
		}
		if end >= n {
			break // falls off the code image; leave to the interpreter
		}
		for a := seg; a <= end; a++ {
			if !code[a].Op.Valid() {
				break build // junk opcode: the reference path must trap it
			}
		}
		term := code[end]

		// How many pre-terminator instructions fuse into the terminator.
		fuse := uint32(0)
		if term.Op == isa.OpJcc && end > seg {
			switch code[end-1].Op {
			case isa.OpCmp, isa.OpCmpI, isa.OpTest:
				fuse = 1
				if code[end-1].Op == isa.OpCmpI && end-1 > seg &&
					code[end-2].Op == isa.OpSubI && code[end-2].RD == code[end-1].RD {
					fuse = 2
				}
			}
		}

		el := elisionMask(code, seg, end)
		lim := end - fuse
		for a := seg; a < lim; {
			a += e.emitOne(cb, code, a, lim, el[a-seg:], &steps, &cycles)
		}

		// Charge the terminator and its fused members.
		for a := lim; a <= end; a++ {
			steps++
			cycles += c.costs.Of(code[a].Op)
		}
		cb.spans = append(cb.spans, span{seg, end + 1})

		if term.Op == isa.OpJmp {
			tgt := term.Target(end)
			if tgt > end && tgt < n && steps < maxTraceInstrs && !containsAddr(visited, tgt) {
				cb.uops = append(cb.uops, uop{
					k: uBr, ip: end, preSteps: steps, preCycles: cycles,
				})
				seg = tgt
				continue
			}
		}
		e.emitTerm(cb, code, seg, end, fuse, steps, cycles)
		compiled = true
		break
	}

	if !compiled || len(cb.uops) == 0 {
		return nil
	}
	cb.totalSteps, cb.totalCycles = steps, cycles
	return cb
}

func containsAddr(s []uint32, a uint32) bool {
	for _, v := range s {
		if v == a {
			return true
		}
	}
	return false
}

// emitOne emits the superinstruction starting at guest address a (bounded by
// lim, exclusive) and returns how many guest instructions it consumed. el is
// the elision mask sliced to start at a.
func (e *Engine) emitOne(cb *cblock, code []isa.Instr, a, lim uint32, el []bool, steps, cycles *uint32) uint32 {
	costs := e.c.costs
	in := code[a]

	charge := func(k uint32) {
		s, cy := *steps, *cycles
		for i := uint32(0); i < k; i++ {
			s++
			cy += costs.Of(code[a+i].Op)
		}
		*steps, *cycles = s, cy
	}

	// Fusions rooted at movi.
	if in.Op == isa.OpMovRI && a+1 < lim {
		n1 := code[a+1]
		switch n1.Op {
		case isa.OpMul:
			if n1.RS1 == in.RD {
				if a+2 < lim {
					if n2 := code[a+2]; n2.Op == isa.OpAddI && n2.RD == n1.RD {
						charge(3)
						k := pick(el[2], uLCGNF, uLCG)
						cb.uops = append(cb.uops, uop{
							k: k, rd: uint8(n1.RD), rs1: uint8(in.RD),
							imm: in.Imm, aux: n2.Imm,
							ip: a + 2, preSteps: *steps, preCycles: *cycles,
						})
						return 3
					}
				}
				charge(2)
				k := pick(el[1], uMoviMulNF, uMoviMul)
				cb.uops = append(cb.uops, uop{
					k: k, rd: uint8(n1.RD), rs1: uint8(in.RD), imm: in.Imm,
					ip: a + 1, preSteps: *steps, preCycles: *cycles,
				})
				return 2
			}
		case isa.OpLoad:
			if n1.RS1 == in.RD {
				charge(2)
				cb.uops = append(cb.uops, uop{
					k: uMoviLoad, rd: uint8(n1.RD), rs1: uint8(in.RD),
					imm: in.Imm, aux: in.Imm + n1.Imm,
					ip: a + 1, preSteps: *steps, preCycles: *cycles,
				})
				return 2
			}
		case isa.OpStore:
			if n1.RS1 == in.RD {
				charge(2)
				cb.uops = append(cb.uops, uop{
					k: uMoviStore, rs1: uint8(in.RD), rs2: uint8(n1.RS2),
					imm: in.Imm, aux: in.Imm + n1.Imm,
					ip: a + 1, preSteps: *steps, preCycles: *cycles,
				})
				return 2
			}
		}
	}

	// Guards, with the lea chain computing the checked register fused in.
	// The report a guard skips is consumed but not charged: it executes
	// only after the guard has left the block.
	if in.Op == isa.OpLea && a+1 < lim {
		n1 := code[a+1]
		if Guard(code, a+1) && n1.RS1 == in.RD {
			charge(2)
			e.emitGuard(cb, a+1, in.RD, in.RS1, in.Imm, in.RD, 0, *steps, *cycles)
			return 3
		}
		if n1.Op == isa.OpLea && n1.RS1 == in.RD && a+2 < lim && Guard(code, a+2) && code[a+2].RS1 == n1.RD {
			charge(3)
			e.emitGuard(cb, a+2, in.RD, in.RS1, in.Imm, n1.RD, n1.Imm, *steps, *cycles)
			return 4
		}
	}
	if Guard(code, a) {
		charge(1)
		e.emitGuard(cb, a, in.RS1, in.RS1, 0, in.RS1, 0, *steps, *cycles)
		return 2
	}

	if in.Op == isa.OpNop {
		charge(1)
		return 1 // accounted in the cumulative counters, no uop emitted
	}

	k, _ := singleKind(in.Op, el[0])
	charge(1)
	cb.uops = append(cb.uops, uop{
		k: k, rd: uint8(in.RD), rs1: uint8(in.RS1), rs2: uint8(in.RS2),
		imm: in.Imm, ip: a, preSteps: *steps, preCycles: *cycles,
	})
	return 1
}

// emitGuard emits the guard uop for the jrz at ip: rd = rs1+imm, then
// chk = rd+aux, and the check tests chk.
func (e *Engine) emitGuard(cb *cblock, ip uint32, rd, rs1 isa.Reg, imm int32, chk isa.Reg, aux int32, steps, cycles uint32) {
	cb.uops = append(cb.uops, uop{
		k: uGuard, rd: uint8(rd), rs1: uint8(rs1), rs2: uint8(chk), imm: imm, aux: aux,
		ip: ip, preSteps: steps, preCycles: cycles,
	})
}

// emitTerm emits the block terminator at guest address end, fusing `fuse`
// preceding compare instructions into it, with the block's inclusive totals.
func (e *Engine) emitTerm(cb *cblock, code []isa.Instr, seg, end uint32, fuse, steps, cycles uint32) {
	in := code[end]
	u := uop{ip: end, preSteps: steps, preCycles: cycles}
	switch in.Op {
	case isa.OpJmp:
		u.k = uJmp
		u.aux = int32(in.Target(end))
	case isa.OpJcc:
		u.rs2 = uint8(in.Cond())
		u.aux = int32(in.Target(end))
		switch fuse {
		case 2: // subi rd,k ; cmpi rd,c ; jcc
			u.k = uDecJcc
			u.rd = uint8(code[end-2].RD)
			u.imm = code[end-2].Imm
			u.aux2 = code[end-1].Imm
		case 1:
			prev := code[end-1]
			u.rd = uint8(prev.RD)
			switch prev.Op {
			case isa.OpCmp:
				u.k = uCmpJcc
				u.rs1 = uint8(prev.RS1)
			case isa.OpCmpI:
				u.k = uCmpIJcc
				u.imm = prev.Imm
			case isa.OpTest:
				u.k = uTestJcc
				u.rs1 = uint8(prev.RS1)
			}
		default:
			u.k = uJcc
		}
	case isa.OpJrz:
		u.k = uJrz
		u.rs1 = uint8(in.RS1)
		u.aux = int32(in.Target(end))
	case isa.OpCall:
		u.k = uCall
		u.aux = int32(in.Target(end))
	case isa.OpRet:
		u.k = uRet
	case isa.OpJmpR:
		u.k = uJmpR
		u.rs1 = uint8(in.RS1)
	case isa.OpCallR:
		u.k = uCallR
		u.rs1 = uint8(in.RS1)
	case isa.OpHalt:
		u.k = uHalt
	case isa.OpReport:
		u.k = uReport
	case isa.OpTrapOut:
		u.k = uTrapOut
	}
	cb.uops = append(cb.uops, u)
}
