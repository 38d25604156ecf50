package dbt

import (
	"fmt"

	"repro/internal/isa"
)

// Emitter appends translated instructions to the code cache on behalf of
// the translator and the plugged-in Technique. It provides local forward
// labels (for instrumentation branches) and exit helpers that create
// chaining stubs.
//
// Layout contract for conditional tails: emit the taken arm first and the
// fall-through arm last (branching to the taken arm with the negated
// condition), so that trace formation can make the fall-through arm
// seamless. ExitDirect of the armed fall-through target is the only call
// allowed to emit nothing.
type Emitter struct {
	d *DBT

	// suppress is the guest address whose ExitDirect may be elided because
	// the next trace block is emitted immediately after.
	suppress      uint32
	suppressValid bool

	// lastBind remembers the most recent Bind so that a stub emitted
	// directly at a bound label records the branch as its referrer: when
	// the stub chains, the branch itself is re-pointed at the translation,
	// eliminating the stub hop (real translators patch the branch, not
	// just the stub).
	lastBind      uint32
	lastBindPC    uint32
	lastBindValid bool
}

// PC returns the cache address of the next emitted instruction.
func (e *Emitter) PC() uint32 { return uint32(len(e.d.cache)) }

// Emit appends one instruction to the cache.
func (e *Emitter) Emit(in isa.Instr) { e.d.cache = append(e.d.cache, in) }

// JccFwd emits a conditional branch to a not-yet-bound local label and
// returns a fixup handle for Bind.
func (e *Emitter) JccFwd(c isa.Cond) uint32 {
	at := e.PC()
	e.Emit(isa.Instr{Op: isa.OpJcc, RD: isa.Reg(c)})
	return at
}

// JrzFwd emits a jump-if-register-zero to a not-yet-bound local label.
// It is the flag-transparent check branch (the paper's jcxz idiom).
func (e *Emitter) JrzFwd(r isa.Reg) uint32 {
	at := e.PC()
	e.Emit(isa.Instr{Op: isa.OpJrz, RS1: r})
	return at
}

// JmpFwd emits an unconditional jump to a not-yet-bound local label.
func (e *Emitter) JmpFwd() uint32 {
	at := e.PC()
	e.Emit(isa.Instr{Op: isa.OpJmp})
	return at
}

// Bind points the branch emitted at fixup handle at the current PC.
func (e *Emitter) Bind(fix uint32) {
	e.d.cache[fix].Imm = isa.OffsetFor(fix, e.PC())
	e.lastBind = fix
	e.lastBindPC = e.PC()
	e.lastBindValid = true
}

// Lea emits rd = rs + imm (flag transparent).
func (e *Emitter) Lea(rd, rs isa.Reg, imm int32) {
	e.Emit(isa.Instr{Op: isa.OpLea, RD: rd, RS1: rs, Imm: imm})
}

// Lea3 emits rd = rs1 + rs2 + imm (flag transparent).
func (e *Emitter) Lea3(rd, rs1, rs2 isa.Reg, imm int32) {
	e.Emit(isa.Instr{Op: isa.OpLea3, RD: rd, RS1: rs1, RS2: rs2, Imm: imm})
}

// Report emits the error-report instruction (software detection point).
func (e *Emitter) Report() { e.Emit(isa.Instr{Op: isa.OpReport}) }

// NoteCheck records that the technique emitted one signature-check
// sequence: it feeds the per-technique check-site counter. Techniques
// call it once per emitted check.
func (e *Emitter) NoteCheck() {
	e.d.stats.CheckSites++
}

// PushGuestReturn pushes the guest return address for a translated call.
// The guest stack must hold guest addresses (transparency: the original
// binary may inspect them, and returns re-enter the translator), so the
// translator cannot use the machine's call instruction, whose push would
// leak a code-cache address.
func (e *Emitter) PushGuestReturn(guestRet uint32) {
	e.Emit(isa.Instr{Op: isa.OpMovRI, RD: isa.RegAUX, Imm: int32(guestRet)})
	e.Emit(isa.Instr{Op: isa.OpPush, RS1: isa.RegAUX})
}

// armFallthrough allows the next ExitDirect(target) to emit nothing
// because the trace emits that block immediately after.
func (e *Emitter) armFallthrough(target uint32) {
	e.suppress = target
	e.suppressValid = true
}

// ExitDirect transfers control to the translated code for guestTarget:
// directly when the target is already translated and chaining is on,
// through a chaining stub otherwise, or seamlessly (no instruction) when
// the trace emitter placed the target right behind this block.
func (e *Emitter) ExitDirect(guestTarget uint32) {
	if e.suppressValid && e.suppress == guestTarget {
		e.suppressValid = false
		return
	}
	if tb, ok := e.d.lookupBlock(guestTarget); ok && !e.d.opts.NoChaining {
		at := e.PC()
		if e.lastBindValid && e.lastBindPC == at {
			// The branch bound here can go straight to the translation.
			e.d.cache[e.lastBind].Imm = isa.OffsetFor(e.lastBind, tb.CacheStart)
			e.lastBindValid = false
		}
		e.Emit(isa.Instr{Op: isa.OpJmp, Imm: isa.OffsetFor(at, tb.CacheStart)})
		return
	}
	id := len(e.d.stubs)
	slot := e.PC()
	st := stub{guest: guestTarget, slot: slot, referrer: noReferrer}
	if e.lastBindValid && e.lastBindPC == slot {
		st.referrer = e.lastBind
		e.lastBindValid = false
	}
	e.d.stubs = append(e.d.stubs, st)
	e.Emit(isa.Instr{Op: isa.OpTrapOut, Imm: int32(id)})
}

// ExitIndirect transfers control to the guest address held in isa.RegSCR
// via the translator's indirect-target lookup service.
func (e *Emitter) ExitIndirect() {
	e.Emit(isa.Instr{Op: isa.OpTrapOut, Imm: indirectStub})
}

// indirectStub marks an indirect-dispatch exit in a TrapOut immediate.
const indirectStub = int32(-1)

// noReferrer marks stubs reached by fall-through only.
const noReferrer = ^uint32(0)

// stub is a pending (or chained) direct control transfer out of a block.
type stub struct {
	guest uint32 // guest target address
	slot  uint32 // cache slot holding the TrapOut (patched to Jmp on chain)
	// referrer is the cache slot of the branch that targets this stub
	// (noReferrer when the stub is reached by fall-through); on chaining
	// the branch is re-pointed directly at the translation.
	referrer uint32
	// count is the number of dispatches through this stub; back-edge stubs
	// use it as the hot-trace trigger.
	count int
	// backEdge marks loop-closing transfers (candidates for hot traces).
	backEdge bool
	// chained marks stubs already patched to a direct jump.
	chained bool
}

func (s *stub) String() string {
	return fmt.Sprintf("stub->0x%x@%d count=%d chained=%v", s.guest, s.slot, s.count, s.chained)
}
