package comp

import (
	"repro/internal/cpu"
	"repro/internal/isa"
)

// Deferred flag sources: most ALU flag results are overwritten before any
// instruction reads them, so flag writes record (operation, operands) and
// materialize only at a read (Jcc, CMOVcc, PUSHF) or a tier boundary — the
// same dead-flag observation the liveness pruner exploits, applied to the
// compiled tier itself.
const (
	fLive uint8 = iota
	fAdd
	fSub
	fLogic
)

// matf materializes a deferred flag source (identity for fLive).
func matf(fk uint8, fa, fb int32, f isa.Flags) isa.Flags {
	switch fk {
	case fAdd:
		return isa.AddFlags(fa, fb)
	case fSub:
		return isa.SubFlags(fa, fb)
	case fLogic:
		return isa.LogicFlags(fa)
	}
	return f
}

// flushState writes the compiled tier's locals back to the machine.
func flushState(m *cpu.Machine, ip uint32, steps, cycles, direct uint64, fk uint8, fa, fb int32, flags isa.Flags) {
	m.IP = ip
	m.Steps = steps
	m.Cycles = cycles
	m.DirectBranches = direct
	m.Flags = matf(fk, fa, fb, flags)
}

// evalSub evaluates cond against SubFlags(a, b) without materializing,
// using the IA32 compare identities.
func evalSub(c isa.Cond, a, b int32) bool {
	switch c {
	case isa.CondEQ:
		return a == b
	case isa.CondNE:
		return a != b
	case isa.CondLT:
		return a < b
	case isa.CondLE:
		return a <= b
	case isa.CondGT:
		return a > b
	case isa.CondGE:
		return a >= b
	case isa.CondB:
		return uint32(a) < uint32(b)
	case isa.CondBE:
		return uint32(a) <= uint32(b)
	case isa.CondA:
		return uint32(a) > uint32(b)
	case isa.CondAE:
		return uint32(a) >= uint32(b)
	case isa.CondS:
		return a-b < 0
	case isa.CondNS:
		return a-b >= 0
	}
	return c.Eval(isa.SubFlags(a, b))
}

// evalLogic evaluates cond against LogicFlags(v) (CF = OF = 0).
func evalLogic(c isa.Cond, v int32) bool {
	switch c {
	case isa.CondEQ:
		return v == 0
	case isa.CondNE:
		return v != 0
	case isa.CondLT, isa.CondS:
		return v < 0
	case isa.CondGE, isa.CondNS:
		return v >= 0
	case isa.CondLE:
		return v <= 0
	case isa.CondGT:
		return v > 0
	case isa.CondB:
		return false
	case isa.CondAE:
		return true
	case isa.CondBE:
		return v == 0
	case isa.CondA:
		return v != 0
	case isa.CondO:
		return false
	case isa.CondNO:
		return true
	}
	return c.Eval(isa.LogicFlags(v))
}

// evalAdd evaluates cond against AddFlags(a, b).
func evalAdd(c isa.Cond, a, b int32) bool {
	r := a + b
	switch c {
	case isa.CondEQ:
		return r == 0
	case isa.CondNE:
		return r != 0
	case isa.CondS:
		return r < 0
	case isa.CondNS:
		return r >= 0
	case isa.CondLT:
		return int64(a)+int64(b) < 0
	case isa.CondGE:
		return int64(a)+int64(b) >= 0
	case isa.CondLE:
		return r == 0 || int64(a)+int64(b) < 0
	case isa.CondGT:
		return r != 0 && int64(a)+int64(b) >= 0
	case isa.CondB:
		return uint32(r) < uint32(a)
	case isa.CondAE:
		return uint32(r) >= uint32(a)
	}
	return c.Eval(isa.AddFlags(a, b))
}

// condDeferred evaluates cond against the deferred flag state.
func condDeferred(c isa.Cond, fk uint8, fa, fb int32, flags isa.Flags) bool {
	switch fk {
	case fSub:
		return evalSub(c, fa, fb)
	case fLogic:
		return evalLogic(c, fa)
	case fAdd:
		return evalAdd(c, fa, fb)
	}
	return c.Eval(flags)
}

// runCompiled executes compiled blocks starting at cb, chaining block to
// block until a stop (done=true; StopWatch at the watched entry or guard
// continuation), an unchained cold target, a block that would cross bound,
// a failed guard, or the dbLimit-th direct branch (done=false with the
// machine state flushed exactly). The caller guarantees cb fits bound and
// that no branch hook is installed.
func (e *Engine) runCompiled(m *cpu.Machine, cb *cblock, bound, dbLimit uint64) (cpu.Stop, bool) {
	c := e.c
	frz := c.frozen
	byAddr := &c.byAddr
	costs := c.costs
	code := e.code
	r := &m.Regs
	mm := m.Mem

	steps := m.Steps
	cycles := m.Cycles
	direct := m.DirectBranches
	flags := m.Flags
	fk := fLive
	var fa, fb int32
	var chainHits uint64
	wip, wregs, wany := e.watchIP, e.watchRegs, e.watchAny

	var stop cpu.Stop
	done := false

chain:
	for {
		uops := cb.uops
		var slot **cblock
		var tgt uint32
	body:
		// Every block ends in a terminator uop that breaks out, so the range
		// bound never triggers; ranging (vs. an unbounded index) lets the
		// compiler drop the per-uop bounds check in this hottest loop.
		for i := range uops {
			u := &uops[i]
			switch u.k {
			case uMovRI:
				r[u.rd] = u.imm
			case uMovRR:
				r[u.rd] = r[u.rs1]
			case uLea:
				r[u.rd] = r[u.rs1] + u.imm
			case uLea3:
				r[u.rd] = r[u.rs1] + r[u.rs2] + u.imm
			case uXor3:
				r[u.rd] = r[u.rs1] ^ r[u.rs2] ^ u.imm

			case uLoad:
				v, err := mm.Load(uint32(r[u.rs1] + u.imm))
				if err != nil {
					flushState(m, u.ip, steps+uint64(u.preSteps), cycles+uint64(u.preCycles), direct, fk, fa, fb, flags)
					stop, done = cpu.Stop{Reason: cpu.StopBadMemory, IP: u.ip, Detail: err.Error()}, true
					break chain
				}
				r[u.rd] = v
			case uStore:
				if err := mm.Store(uint32(r[u.rs1]+u.imm), r[u.rs2]); err != nil {
					flushState(m, u.ip, steps+uint64(u.preSteps), cycles+uint64(u.preCycles), direct, fk, fa, fb, flags)
					stop, done = cpu.Stop{Reason: cpu.StopBadMemory, IP: u.ip, Detail: err.Error()}, true
					break chain
				}
			case uPush:
				r[isa.ESP]--
				if err := mm.Store(uint32(r[isa.ESP]), r[u.rs1]); err != nil {
					flushState(m, u.ip, steps+uint64(u.preSteps), cycles+uint64(u.preCycles), direct, fk, fa, fb, flags)
					stop, done = cpu.Stop{Reason: cpu.StopBadMemory, IP: u.ip, Detail: err.Error()}, true
					break chain
				}
			case uPop:
				v, err := mm.Load(uint32(r[isa.ESP]))
				if err != nil {
					flushState(m, u.ip, steps+uint64(u.preSteps), cycles+uint64(u.preCycles), direct, fk, fa, fb, flags)
					stop, done = cpu.Stop{Reason: cpu.StopBadMemory, IP: u.ip, Detail: err.Error()}, true
					break chain
				}
				r[u.rd] = v
				r[isa.ESP]++
			case uPushF:
				flags = matf(fk, fa, fb, flags)
				fk = fLive
				r[isa.ESP]--
				if err := mm.Store(uint32(r[isa.ESP]), int32(flags)); err != nil {
					flushState(m, u.ip, steps+uint64(u.preSteps), cycles+uint64(u.preCycles), direct, fk, fa, fb, flags)
					stop, done = cpu.Stop{Reason: cpu.StopBadMemory, IP: u.ip, Detail: err.Error()}, true
					break chain
				}
			case uPopF:
				v, err := mm.Load(uint32(r[isa.ESP]))
				if err != nil {
					flushState(m, u.ip, steps+uint64(u.preSteps), cycles+uint64(u.preCycles), direct, fk, fa, fb, flags)
					stop, done = cpu.Stop{Reason: cpu.StopBadMemory, IP: u.ip, Detail: err.Error()}, true
					break chain
				}
				r[isa.ESP]++
				flags = isa.Flags(v) & isa.FlagMask
				fk = fLive

			case uAdd:
				a, b := r[u.rd], r[u.rs1]
				r[u.rd] = a + b
				fk, fa, fb = fAdd, a, b
			case uAddI:
				a := r[u.rd]
				r[u.rd] = a + u.imm
				fk, fa, fb = fAdd, a, u.imm
			case uSub:
				a, b := r[u.rd], r[u.rs1]
				r[u.rd] = a - b
				fk, fa, fb = fSub, a, b
			case uSubI:
				a := r[u.rd]
				r[u.rd] = a - u.imm
				fk, fa, fb = fSub, a, u.imm
			case uAnd:
				r[u.rd] &= r[u.rs1]
				fk, fa = fLogic, r[u.rd]
			case uAndI:
				r[u.rd] &= u.imm
				fk, fa = fLogic, r[u.rd]
			case uOr:
				r[u.rd] |= r[u.rs1]
				fk, fa = fLogic, r[u.rd]
			case uOrI:
				r[u.rd] |= u.imm
				fk, fa = fLogic, r[u.rd]
			case uXor:
				r[u.rd] ^= r[u.rs1]
				fk, fa = fLogic, r[u.rd]
			case uXorI:
				r[u.rd] ^= u.imm
				fk, fa = fLogic, r[u.rd]
			case uShl:
				r[u.rd] = int32(uint32(r[u.rd]) << (uint32(r[u.rs1]) & 31))
				fk, fa = fLogic, r[u.rd]
			case uShlI:
				r[u.rd] = int32(uint32(r[u.rd]) << (uint32(u.imm) & 31))
				fk, fa = fLogic, r[u.rd]
			case uShr:
				r[u.rd] = int32(uint32(r[u.rd]) >> (uint32(r[u.rs1]) & 31))
				fk, fa = fLogic, r[u.rd]
			case uShrI:
				r[u.rd] = int32(uint32(r[u.rd]) >> (uint32(u.imm) & 31))
				fk, fa = fLogic, r[u.rd]
			case uMul:
				r[u.rd] *= r[u.rs1]
				fk, fa = fLogic, r[u.rd]
			case uDiv:
				if r[u.rs1] == 0 {
					flushState(m, u.ip, steps+uint64(u.preSteps), cycles+uint64(u.preCycles), direct, fk, fa, fb, flags)
					stop, done = cpu.Stop{Reason: cpu.StopDivZero, IP: u.ip}, true
					break chain
				}
				r[u.rd] /= r[u.rs1]
				fk, fa = fLogic, r[u.rd]

			case uAddNF:
				r[u.rd] += r[u.rs1]
			case uAddINF:
				r[u.rd] += u.imm
			case uSubNF:
				r[u.rd] -= r[u.rs1]
			case uSubINF:
				r[u.rd] -= u.imm
			case uAndNF:
				r[u.rd] &= r[u.rs1]
			case uAndINF:
				r[u.rd] &= u.imm
			case uOrNF:
				r[u.rd] |= r[u.rs1]
			case uOrINF:
				r[u.rd] |= u.imm
			case uXorNF:
				r[u.rd] ^= r[u.rs1]
			case uXorINF:
				r[u.rd] ^= u.imm
			case uShlNF:
				r[u.rd] = int32(uint32(r[u.rd]) << (uint32(r[u.rs1]) & 31))
			case uShlINF:
				r[u.rd] = int32(uint32(r[u.rd]) << (uint32(u.imm) & 31))
			case uShrNF:
				r[u.rd] = int32(uint32(r[u.rd]) >> (uint32(r[u.rs1]) & 31))
			case uShrINF:
				r[u.rd] = int32(uint32(r[u.rd]) >> (uint32(u.imm) & 31))
			case uMulNF:
				r[u.rd] *= r[u.rs1]

			case uCmp:
				fk, fa, fb = fSub, r[u.rd], r[u.rs1]
			case uCmpI:
				fk, fa, fb = fSub, r[u.rd], u.imm
			case uTest:
				fk, fa = fLogic, r[u.rd]&r[u.rs1]

			case uFAdd:
				r[u.rd] = cpu.Fop(r[u.rd], r[u.rs1], '+')
			case uFSub:
				r[u.rd] = cpu.Fop(r[u.rd], r[u.rs1], '-')
			case uFMul:
				r[u.rd] = cpu.Fop(r[u.rd], r[u.rs1], '*')
			case uFDiv:
				r[u.rd] = cpu.Fop(r[u.rd], r[u.rs1], '/')

			case uCmov:
				if condDeferred(isa.Cond(u.rs2), fk, fa, fb, flags) {
					r[u.rd] = r[u.rs1]
				}
			case uOut:
				m.Output = append(m.Output, r[u.rs1])

			case uLCG:
				r[u.rs1] = u.imm
				a := r[u.rd] * u.imm
				r[u.rd] = a + u.aux
				fk, fa, fb = fAdd, a, u.aux
			case uLCGNF:
				r[u.rs1] = u.imm
				r[u.rd] = r[u.rd]*u.imm + u.aux
			case uMoviMul:
				r[u.rs1] = u.imm
				v := r[u.rd] * u.imm
				r[u.rd] = v
				fk, fa = fLogic, v
			case uMoviMulNF:
				r[u.rs1] = u.imm
				r[u.rd] *= u.imm
			case uMoviLoad:
				r[u.rs1] = u.imm
				v, err := mm.Load(uint32(u.aux))
				if err != nil {
					flushState(m, u.ip, steps+uint64(u.preSteps), cycles+uint64(u.preCycles), direct, fk, fa, fb, flags)
					stop, done = cpu.Stop{Reason: cpu.StopBadMemory, IP: u.ip, Detail: err.Error()}, true
					break chain
				}
				r[u.rd] = v
			case uMoviStore:
				r[u.rs1] = u.imm
				if err := mm.Store(uint32(u.aux), r[u.rs2]); err != nil {
					flushState(m, u.ip, steps+uint64(u.preSteps), cycles+uint64(u.preCycles), direct, fk, fa, fb, flags)
					stop, done = cpu.Stop{Reason: cpu.StopBadMemory, IP: u.ip, Detail: err.Error()}, true
					break chain
				}

			case uGuard:
				a := r[u.rs1] + u.imm
				r[u.rd] = a
				v := a + u.aux
				r[u.rs2] = v
				if direct == dbLimit {
					flushState(m, u.ip, steps+uint64(u.preSteps)-1,
						cycles+uint64(u.preCycles)-uint64(costs.Of(code[u.ip].Op)),
						direct, fk, fa, fb, flags)
					break chain
				}
				direct++
				m.SigChecks++
				if v != 0 {
					// The check failed: leave at the report with the jrz
					// retired; the interpreter executes the report.
					flushState(m, u.ip+1, steps+uint64(u.preSteps), cycles+uint64(u.preCycles), direct, fk, fa, fb, flags)
					break chain
				}
				if u.ip+2 == wip && wregs != nil && (wany || *r == *wregs) {
					flushState(m, wip, steps+uint64(u.preSteps), cycles+uint64(u.preCycles), direct, fk, fa, fb, flags)
					stop, done = cpu.Stop{Reason: cpu.StopWatch, IP: wip}, true
					break chain
				}

			case uBr:
				if direct == dbLimit {
					flushState(m, u.ip, steps+uint64(u.preSteps)-1,
						cycles+uint64(u.preCycles)-uint64(costs.Of(code[u.ip].Op)),
						direct, fk, fa, fb, flags)
					break chain
				}
				direct++
				chainHits++

			case uJmp:
				if direct == dbLimit {
					flushState(m, u.ip, steps+uint64(u.preSteps)-1,
						cycles+uint64(u.preCycles)-uint64(costs.Of(code[u.ip].Op)),
						direct, fk, fa, fb, flags)
					break chain
				}
				direct++
				tgt, slot = uint32(u.aux), &u.taken
				break body
			case uJcc:
				if direct == dbLimit {
					flushState(m, u.ip, steps+uint64(u.preSteps)-1,
						cycles+uint64(u.preCycles)-uint64(costs.Of(code[u.ip].Op)),
						direct, fk, fa, fb, flags)
					break chain
				}
				direct++
				if condDeferred(isa.Cond(u.rs2), fk, fa, fb, flags) {
					tgt, slot = uint32(u.aux), &u.taken
				} else {
					tgt, slot = u.ip+1, &u.fall
				}
				break body
			case uJrz:
				if direct == dbLimit {
					flushState(m, u.ip, steps+uint64(u.preSteps)-1,
						cycles+uint64(u.preCycles)-uint64(costs.Of(code[u.ip].Op)),
						direct, fk, fa, fb, flags)
					break chain
				}
				direct++
				m.SigChecks++
				if r[u.rs1] == 0 {
					tgt, slot = uint32(u.aux), &u.taken
				} else {
					tgt, slot = u.ip+1, &u.fall
				}
				break body
			case uCall:
				if direct == dbLimit {
					flushState(m, u.ip, steps+uint64(u.preSteps)-1,
						cycles+uint64(u.preCycles)-uint64(costs.Of(code[u.ip].Op)),
						direct, fk, fa, fb, flags)
					break chain
				}
				direct++
				r[isa.ESP]--
				if err := mm.Store(uint32(r[isa.ESP]), int32(u.ip+1)); err != nil {
					flushState(m, u.ip, steps+uint64(u.preSteps), cycles+uint64(u.preCycles), direct, fk, fa, fb, flags)
					stop, done = cpu.Stop{Reason: cpu.StopBadMemory, IP: u.ip, Detail: err.Error()}, true
					break chain
				}
				tgt, slot = uint32(u.aux), &u.taken
				break body

			case uCmpJcc:
				a, b := r[u.rd], r[u.rs1]
				fk, fa, fb = fSub, a, b
				if direct == dbLimit {
					flushState(m, u.ip, steps+uint64(u.preSteps)-1,
						cycles+uint64(u.preCycles)-uint64(costs.Of(code[u.ip].Op)),
						direct, fk, fa, fb, flags)
					break chain
				}
				direct++
				if evalSub(isa.Cond(u.rs2), a, b) {
					tgt, slot = uint32(u.aux), &u.taken
				} else {
					tgt, slot = u.ip+1, &u.fall
				}
				break body
			case uCmpIJcc:
				a := r[u.rd]
				fk, fa, fb = fSub, a, u.imm
				if direct == dbLimit {
					flushState(m, u.ip, steps+uint64(u.preSteps)-1,
						cycles+uint64(u.preCycles)-uint64(costs.Of(code[u.ip].Op)),
						direct, fk, fa, fb, flags)
					break chain
				}
				direct++
				if evalSub(isa.Cond(u.rs2), a, u.imm) {
					tgt, slot = uint32(u.aux), &u.taken
				} else {
					tgt, slot = u.ip+1, &u.fall
				}
				break body
			case uTestJcc:
				v := r[u.rd] & r[u.rs1]
				fk, fa = fLogic, v
				if direct == dbLimit {
					flushState(m, u.ip, steps+uint64(u.preSteps)-1,
						cycles+uint64(u.preCycles)-uint64(costs.Of(code[u.ip].Op)),
						direct, fk, fa, fb, flags)
					break chain
				}
				direct++
				if evalLogic(isa.Cond(u.rs2), v) {
					tgt, slot = uint32(u.aux), &u.taken
				} else {
					tgt, slot = u.ip+1, &u.fall
				}
				break body
			case uDecJcc:
				v := r[u.rd] - u.imm
				r[u.rd] = v
				fk, fa, fb = fSub, v, u.aux2
				if direct == dbLimit {
					flushState(m, u.ip, steps+uint64(u.preSteps)-1,
						cycles+uint64(u.preCycles)-uint64(costs.Of(code[u.ip].Op)),
						direct, fk, fa, fb, flags)
					break chain
				}
				direct++
				if evalSub(isa.Cond(u.rs2), v, u.aux2) {
					tgt, slot = uint32(u.aux), &u.taken
				} else {
					tgt, slot = u.ip+1, &u.fall
				}
				break body

			case uRet:
				v, err := mm.Load(uint32(r[isa.ESP]))
				if err != nil {
					flushState(m, u.ip, steps+uint64(u.preSteps), cycles+uint64(u.preCycles), direct, fk, fa, fb, flags)
					stop, done = cpu.Stop{Reason: cpu.StopBadMemory, IP: u.ip, Detail: err.Error()}, true
					break chain
				}
				r[isa.ESP]++
				m.IndirectBranches++
				tgt, slot = uint32(v), nil
				break body
			case uJmpR:
				m.IndirectBranches++
				tgt, slot = uint32(r[u.rs1]), nil
				break body
			case uCallR:
				r[isa.ESP]--
				if err := mm.Store(uint32(r[isa.ESP]), int32(u.ip+1)); err != nil {
					flushState(m, u.ip, steps+uint64(u.preSteps), cycles+uint64(u.preCycles), direct, fk, fa, fb, flags)
					stop, done = cpu.Stop{Reason: cpu.StopBadMemory, IP: u.ip, Detail: err.Error()}, true
					break chain
				}
				m.IndirectBranches++
				tgt, slot = uint32(r[u.rs1]), nil
				break body

			case uHalt:
				flushState(m, u.ip, steps+uint64(u.preSteps), cycles+uint64(u.preCycles), direct, fk, fa, fb, flags)
				stop, done = cpu.Stop{Reason: cpu.StopHalt, IP: u.ip}, true
				break chain
			case uReport:
				flushState(m, u.ip, steps+uint64(u.preSteps), cycles+uint64(u.preCycles), direct, fk, fa, fb, flags)
				stop, done = cpu.Stop{Reason: cpu.StopReport, IP: u.ip}, true
				break chain
			case uTrapOut:
				flushState(m, u.ip, steps+uint64(u.preSteps), cycles+uint64(u.preCycles), direct, fk, fa, fb, flags)
				stop, done = cpu.Stop{Reason: cpu.StopTrapOut, IP: u.ip}, true
				break chain
			}
		}

		// Block completed: charge its bulk totals and chain to the successor.
		steps += uint64(cb.totalSteps)
		cycles += uint64(cb.totalCycles)
		var nb *cblock
		if slot != nil {
			nb = *slot
		}
		if nb != nil {
			chainHits++
		} else {
			nb = byAddr.get(tgt)
			if nb == nil && e.coldBlocks != nil {
				nb = e.coldBlocks[tgt]
			}
			if nb == nil {
				flushState(m, tgt, steps, cycles, direct, fk, fa, fb, flags)
				break chain
			}
			if slot != nil && (!frz || cb.cold) {
				*slot = nb
			}
		}
		if nb.start == wip && wregs != nil && (wany || *r == *wregs) {
			flushState(m, nb.start, steps, cycles, direct, fk, fa, fb, flags)
			stop, done = cpu.Stop{Reason: cpu.StopWatch, IP: nb.start}, true
			break chain
		}
		if steps+uint64(nb.totalSteps) > bound {
			flushState(m, nb.start, steps, cycles, direct, fk, fa, fb, flags)
			break chain
		}
		cb = nb
	}
	e.Stats.ChainHits += chainHits
	return stop, done
}
