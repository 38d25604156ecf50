// Package check implements the control-flow checking techniques evaluated
// by the paper: EdgCF and RCF (the paper's contributions) and ECF (Reis et
// al.) as dynamic-translator instrumentation, plus CFCSS and ECCA as static
// instrumenters for coverage comparison (the paper's translate-on-demand
// scheme cannot host them, Section 5).
//
// All techniques follow the paper's IA32/EM64T constraints translated to
// the simulated ISA: signature updates use the flag-transparent LEA family
// (never XOR, which clobbers flags), checks branch with JRZ (the jcxz
// idiom), and the signature of a block is the address of its first guest
// instruction (plus one), so indirect-branch targets map to signatures for
// free.
package check

import (
	"repro/internal/dbt"
	"repro/internal/isa"
)

// Instrumentation register conventions (target-only registers).
const (
	regPC  = isa.RegPC  // PC': the shadow signature register
	regRTS = isa.RegRTS // RTS: run-time adjusting signature (ECF)
	regAUX = isa.RegAUX // conditional-update scratch
	regSCR = isa.RegSCR // check scratch / indirect targets
)

// BodyBias displaces RCF body-region signatures into their own namespace so
// they can never collide with block-entry signatures (guest addresses + 1).
const BodyBias = int32(1) << 28

// BranchBias further displaces the RCF region covering a block's
// conditional-update and branch code (the R2E/R3E regions of the paper's
// Figure 9), so errors on those inserted instructions are distinguishable
// from body-region errors.
const BranchBias = int32(1) << 27

// emitCheck emits the signature check sequence of the paper's Figure 13:
// the flag-transparent branch is "jump if CX is zero", so the check stages
// through the guest's ECX — save ECX, compute PC' minus the expected
// signature into it, jcxz over the report, restore ECX. Four executed
// instructions per check, five emitted.
func emitCheck(e *dbt.Emitter, expected isa.Reg, delta int32) {
	e.NoteCheck()
	e.Emit(isa.Instr{Op: isa.OpMovRR, RD: regSCR, RS1: isa.ECX}) // save CX
	e.Lea(isa.ECX, expected, delta)                              // CX = PC' - L
	ok := e.JrzFwd(isa.ECX)
	e.Report()
	e.Bind(ok)
	e.Emit(isa.Instr{Op: isa.OpMovRR, RD: isa.ECX, RS1: regSCR}) // restore CX
}

// DBTTechniques lists the techniques implemented inside the translator, in
// the order the paper's figures use.
func DBTTechniques(style dbt.UpdateStyle) []dbt.Technique {
	return []dbt.Technique{&RCF{Style: style}, &EdgCF{Style: style}, &ECF{Style: style}}
}

// ----------------------------------------------------------------------
// EdgCF — Edge Control-Flow checking (Section 3.1).
//
// Invariant: on every control-flow edge PC' holds the signature of the
// destination block; inside a block PC' holds zero. GEN_SIG(x,y,z)=x-y+z
// (the paper's EFLAGS-safe variant of the xor form), CHECK_SIG compares
// with zero via the flag-free JRZ.
// ----------------------------------------------------------------------

// EdgCF implements dbt.Technique.
type EdgCF struct {
	Style dbt.UpdateStyle
}

// Name implements dbt.Technique.
func (t *EdgCF) Name() string { return "EdgCF" }

// Prologue implements dbt.Technique: establish the edge invariant for the
// entry block.
func (t *EdgCF) Prologue(entry uint32) []dbt.RegInit {
	return []dbt.RegInit{{Reg: regPC, Val: dbt.SigOf(entry)}}
}

// EmitHead implements dbt.Technique: "lea PC', [PC'-L]" folds the edge
// signature to zero; the optional check reports unless PC' is now zero.
func (t *EdgCF) EmitHead(e *dbt.Emitter, guestStart uint32, check bool) {
	e.Lea(regPC, regPC, -dbt.SigOf(guestStart))
	if check {
		emitCheck(e, regPC, 0)
	}
}

// EmitFinalCheck implements dbt.Technique: mid-block PC' must be zero.
func (t *EdgCF) EmitFinalCheck(e *dbt.Emitter, guestStart uint32) {
	emitCheck(e, regPC, 0)
}

// EmitTail implements dbt.Technique.
func (t *EdgCF) EmitTail(e *dbt.Emitter, guestStart uint32, term dbt.TermInfo) {
	emitCommonTail(e, guestStart, term, edgcfOps{}, t.Style)
}

// edgcfOps parameterizes the shared tail emitter for EdgCF: deltas are
// applied to PC' directly, and the mid-block base is zero.
type edgcfOps struct{}

func (edgcfOps) updateDirect(e *dbt.Emitter, guestStart uint32, target uint32) {
	e.Lea(regPC, regPC, dbt.SigOf(target))
}
func (edgcfOps) updateIndirect(e *dbt.Emitter, guestStart uint32) {
	// SCR holds the dynamic guest target; its signature is target+1.
	e.Lea3(regPC, regPC, regSCR, 1)
}
func (edgcfOps) condDelta(guestStart, target uint32) int32 { return dbt.SigOf(target) }
func (edgcfOps) condReg() isa.Reg                          { return regPC }
func (edgcfOps) condLoad(e *dbt.Emitter, dst isa.Reg, delta int32) {
	if dst != regPC {
		e.Emit(isa.Instr{Op: isa.OpMovRR, RD: dst, RS1: regPC})
	}
	e.Lea(dst, dst, delta)
}
func (edgcfOps) preCond(*dbt.Emitter, uint32) {}

// ----------------------------------------------------------------------
// RCF — Region-based Control-Flow checking (Section 3.2).
//
// Like EdgCF, but each block's interior is its own signature region with a
// unique nonzero value (entry signature + BodyBias), so errors on the
// instrumentation's own branch instructions — whose EdgCF-era PC' value of
// zero aliases every block interior — are detected too.
// ----------------------------------------------------------------------

// RCF implements dbt.Technique.
type RCF struct {
	Style dbt.UpdateStyle
}

// Name implements dbt.Technique.
func (t *RCF) Name() string { return "RCF" }

// Prologue implements dbt.Technique.
func (t *RCF) Prologue(entry uint32) []dbt.RegInit {
	return []dbt.RegInit{{Reg: regPC, Val: dbt.SigOf(entry)}}
}

// EmitHead implements dbt.Technique: check the entry-region signature (in
// region R_E, through SCR so PC' keeps its unique value), then transition
// into the body region.
func (t *RCF) EmitHead(e *dbt.Emitter, guestStart uint32, check bool) {
	entrySig := dbt.SigOf(guestStart)
	if check {
		emitCheck(e, regPC, -entrySig)
	}
	// Region transition R_E -> R_B.
	e.Lea(regPC, regPC, BodyBias)
}

// EmitFinalCheck implements dbt.Technique: the body-region signature must
// hold right before program exit.
func (t *RCF) EmitFinalCheck(e *dbt.Emitter, guestStart uint32) {
	emitCheck(e, regPC, -(dbt.SigOf(guestStart) + BodyBias))
}

// EmitTail implements dbt.Technique.
func (t *RCF) EmitTail(e *dbt.Emitter, guestStart uint32, term dbt.TermInfo) {
	emitCommonTail(e, guestStart, term, rcfOps{}, t.Style)
}

type rcfOps struct{}

func (rcfOps) bodySig(guestStart uint32) int32 { return dbt.SigOf(guestStart) + BodyBias }

func (o rcfOps) updateDirect(e *dbt.Emitter, guestStart uint32, target uint32) {
	e.Lea(regPC, regPC, dbt.SigOf(target)-o.bodySig(guestStart))
}
func (o rcfOps) updateIndirect(e *dbt.Emitter, guestStart uint32) {
	e.Lea3(regPC, regPC, regSCR, 1-o.bodySig(guestStart))
}
func (o rcfOps) condDelta(guestStart, target uint32) int32 {
	// Arms leave from the branch region, not the body region.
	return dbt.SigOf(target) - (o.bodySig(guestStart) + BranchBias)
}
func (rcfOps) condReg() isa.Reg { return regPC }
func (rcfOps) condLoad(e *dbt.Emitter, dst isa.Reg, delta int32) {
	if dst != regPC {
		e.Emit(isa.Instr{Op: isa.OpMovRR, RD: dst, RS1: regPC})
	}
	e.Lea(dst, dst, delta)
}

// preCond transitions into the per-branch region before the conditional
// update executes — the extra signature update that makes RCF "update the
// signature more than twice in each basic block".
func (rcfOps) preCond(e *dbt.Emitter, guestStart uint32) {
	e.Lea(regPC, regPC, BranchBias)
}

// ----------------------------------------------------------------------
// ECF — enhanced control-flow checking (Reis et al., SWIFT).
//
// PC' holds the current block's signature inside the block; the run-time
// adjusting signature RTS carries the delta to the next block, selected by
// a duplicated evaluation of the branch condition.
// ----------------------------------------------------------------------

// ECF implements dbt.Technique.
type ECF struct {
	Style dbt.UpdateStyle
}

// Name implements dbt.Technique.
func (t *ECF) Name() string { return "ECF" }

// Prologue implements dbt.Technique.
func (t *ECF) Prologue(entry uint32) []dbt.RegInit {
	return []dbt.RegInit{{Reg: regPC, Val: dbt.SigOf(entry)}, {Reg: regRTS, Val: 0}}
}

// EmitHead implements dbt.Technique: fold RTS into PC' ("xor PC', RTS" in
// the paper, lea-based here), then optionally compare PC' with the block
// signature.
func (t *ECF) EmitHead(e *dbt.Emitter, guestStart uint32, check bool) {
	e.Lea3(regPC, regPC, regRTS, 0)
	if check {
		emitCheck(e, regPC, -dbt.SigOf(guestStart))
	}
}

// EmitFinalCheck implements dbt.Technique.
func (t *ECF) EmitFinalCheck(e *dbt.Emitter, guestStart uint32) {
	emitCheck(e, regPC, -dbt.SigOf(guestStart))
}

// EmitTail implements dbt.Technique.
func (t *ECF) EmitTail(e *dbt.Emitter, guestStart uint32, term dbt.TermInfo) {
	emitCommonTail(e, guestStart, term, ecfOps{}, t.Style)
}

type ecfOps struct{}

func (ecfOps) updateDirect(e *dbt.Emitter, guestStart uint32, target uint32) {
	e.Emit(isa.Instr{Op: isa.OpMovRI, RD: regRTS, Imm: dbt.SigOf(target) - dbt.SigOf(guestStart)})
}
func (ecfOps) updateIndirect(e *dbt.Emitter, guestStart uint32) {
	e.Lea(regRTS, regSCR, 1-dbt.SigOf(guestStart))
}
func (ecfOps) condDelta(guestStart, target uint32) int32 {
	return dbt.SigOf(target) - dbt.SigOf(guestStart)
}
func (ecfOps) condReg() isa.Reg { return regRTS }
func (ecfOps) condLoad(e *dbt.Emitter, dst isa.Reg, delta int32) {
	e.Emit(isa.Instr{Op: isa.OpMovRI, RD: dst, Imm: delta})
}
func (ecfOps) preCond(*dbt.Emitter, uint32) {}

// ----------------------------------------------------------------------
// Shared tail emission.
// ----------------------------------------------------------------------

// tailOps abstracts the per-technique signature update forms used by the
// common tail shapes.
type tailOps interface {
	// updateDirect updates the signature state for a statically known
	// transition guestStart -> target.
	updateDirect(e *dbt.Emitter, guestStart uint32, target uint32)
	// updateIndirect updates the signature state for a dynamic transition
	// whose guest target address is in SCR.
	updateIndirect(e *dbt.Emitter, guestStart uint32)
	// condDelta is the immediate a conditional update loads/adds for the
	// transition guestStart -> target.
	condDelta(guestStart, target uint32) int32
	// condReg is the register the conditional update selects into (PC' for
	// EdgCF/RCF, RTS for ECF).
	condReg() isa.Reg
	// condLoad materializes one arm's update into dst.
	condLoad(e *dbt.Emitter, dst isa.Reg, delta int32)
	// preCond emits the region transition preceding a conditional update
	// (RCF gives the branch code its own region; others do nothing).
	preCond(e *dbt.Emitter, guestStart uint32)
}

// emitCommonTail emits the signature update plus control transfer for all
// terminator shapes. Conditional branches follow the paper's two styles:
//
// UpdateCmov (Figure 8): a duplicated condition evaluation selects the
// signature with a conditional move, then the original branch executes. A
// flag upset at the branch disagrees with the already-committed signature
// and is detected (category A coverage).
//
// UpdateJcc (Figure 14): an inserted branch with the same condition selects
// the signature, then the original branch executes. Cheaper, but the
// inserted branch is a new fault site, which is why the paper calls the
// EdgCF/ECF forms unsafe. No offset sweep here finds an escape through an
// upset of the inserted branch itself; the escapes measured are upsets of
// a check branch that land on this sequence (EXPERIMENTS.md, "Jcc
// coverage").
func emitCommonTail(e *dbt.Emitter, guestStart uint32, term dbt.TermInfo, ops tailOps, style dbt.UpdateStyle) {
	switch term.Kind {
	case dbt.TermFall:
		ops.updateDirect(e, guestStart, term.Fall)
		e.ExitDirect(term.Fall)

	case dbt.TermJmp:
		ops.updateDirect(e, guestStart, term.Taken)
		e.ExitDirect(term.Taken)

	case dbt.TermCall:
		e.PushGuestReturn(term.Fall)
		ops.updateDirect(e, guestStart, term.Taken)
		e.ExitDirect(term.Taken)

	case dbt.TermRet:
		e.Emit(isa.Instr{Op: isa.OpPop, RD: regSCR})
		ops.updateIndirect(e, guestStart)
		e.ExitIndirect()

	case dbt.TermJmpR:
		e.Emit(isa.Instr{Op: isa.OpMovRR, RD: regSCR, RS1: term.Reg})
		ops.updateIndirect(e, guestStart)
		e.ExitIndirect()

	case dbt.TermCallR:
		e.Emit(isa.Instr{Op: isa.OpMovRR, RD: regSCR, RS1: term.Reg})
		e.PushGuestReturn(term.Fall)
		ops.updateIndirect(e, guestStart)
		e.ExitIndirect()

	case dbt.TermHalt:
		e.Emit(isa.Instr{Op: isa.OpHalt})

	case dbt.TermCond:
		ops.preCond(e, guestStart)
		dT := ops.condDelta(guestStart, term.Taken)
		dF := ops.condDelta(guestStart, term.Fall)
		r := ops.condReg()
		neg := term.Cond.Negate()
		if style == dbt.UpdateCmov {
			// Fall value into AUX first (the lea form snapshots PC' before
			// the taken update overwrites it), taken value into r, then
			// the conditional move picks the loser arm.
			ops.condLoad(e, regAUX, dF)
			ops.condLoad(e, r, dT)
			e.Emit(isa.Instr{Op: isa.OpCmov, RD: r, RS1: regAUX, RS2: isa.Reg(neg)})
			orig := e.JccFwd(neg) // original branch, re-emitted
			e.ExitDirect(term.Taken)
			e.Bind(orig)
			e.ExitDirect(term.Fall)
		} else {
			upd := e.JccFwd(term.Cond) // inserted update branch
			ops.condLoad(e, r, dF)
			join := e.JmpFwd()
			e.Bind(upd)
			ops.condLoad(e, r, dT)
			e.Bind(join)
			orig := e.JccFwd(neg) // original branch, re-emitted
			e.ExitDirect(term.Taken)
			e.Bind(orig)
			e.ExitDirect(term.Fall)
		}
	}
}
