// Package cpu implements the simulated processor: a cycle-cost interpreter
// for the ISA, with hardware memory protection (the paper's category-F
// detector), per-branch hooks for the error model, and a single-fault
// injection mechanism implementing the paper's soft-error model (one bit
// flip in a branch's address offset or in the condition flags).
package cpu

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
)

// StopReason classifies why execution stopped.
type StopReason int

// Stop reasons.
const (
	// StopHalt: the program executed OpHalt and finished normally.
	StopHalt StopReason = iota
	// StopReport: a software control-flow check detected an error
	// (OpReport executed). This is the detection channel of the
	// instrumentation techniques.
	StopReport
	// StopTrapOut: translated code executed a deliberate exit stub
	// (OpTrapOut); the DBT regains control. Never an error.
	StopTrapOut
	// StopBadFetch: the instruction pointer left the mapped code region
	// or reached the null page (address 0).
	// This models the hardware execute-disable protection that detects the
	// paper's category F errors.
	StopBadFetch
	// StopBadMemory: a load/store violated memory protection.
	StopBadMemory
	// StopDivZero: division by zero. ECCA deliberately routes its signature
	// checks through this trap.
	StopDivZero
	// StopInvalidInstr: an undecodable opcode was executed.
	StopInvalidInstr
	// StopOutOfSteps: the step budget was exhausted (livelock guard; a
	// control-flow error may throw the program into an infinite loop, which
	// the END/RET policies cannot report, per the paper).
	StopOutOfSteps
	// StopWatch: the compiled engine reached its watched block entry with
	// the watched registers (see comp.Engine.Watch). Never terminal: the
	// caller inspects the machine and resumes.
	StopWatch
)

var stopNames = [...]string{
	"halt", "report", "trapout", "bad-fetch", "bad-memory",
	"div-zero", "invalid-instr", "out-of-steps", "watch",
}

// String names the stop reason.
func (r StopReason) String() string {
	if int(r) < len(stopNames) {
		return stopNames[r]
	}
	return fmt.Sprintf("stop(%d)", int(r))
}

// IsHardwareTrap reports whether the stop is an error detected by the
// simulated hardware rather than by software checks.
func (r StopReason) IsHardwareTrap() bool {
	switch r {
	case StopBadFetch, StopBadMemory, StopDivZero, StopInvalidInstr:
		return true
	}
	return false
}

// Stop describes how an execution ended.
type Stop struct {
	Reason StopReason
	IP     uint32 // instruction pointer at the stop
	Detail string
}

func (s Stop) String() string {
	if s.Detail != "" {
		return fmt.Sprintf("%v@0x%x (%s)", s.Reason, s.IP, s.Detail)
	}
	return fmt.Sprintf("%v@0x%x", s.Reason, s.IP)
}

// BranchEvent reports one executed branch to the BranchHook, carrying
// everything the error model needs: the flags as seen by the branch, the
// direction taken and the resolved target.
type BranchEvent struct {
	IP     uint32
	Instr  isa.Instr
	Flags  isa.Flags
	Taken  bool
	Target uint32 // meaningful only when Taken (or for unconditional)
}

// FaultKind selects which fault the injector plants.
type FaultKind int

// Fault kinds, mirroring the paper's error model.
const (
	// FaultOffsetBit flips one bit of the branch's address-offset immediate
	// for a single execution (a transient datapath upset).
	FaultOffsetBit FaultKind = iota
	// FaultFlagBit flips one bit of the flags the faulted branch evaluates
	// its condition with. The flip is an error of that one branch, as in
	// the paper's single-error model: the flags register keeps its clean
	// value, so no later flag reader sees it.
	FaultFlagBit
	// FaultRegBit flips one bit of a general-purpose register at a given
	// machine step — a data error rather than a control-flow error, the
	// fault class the paper's future-work data-flow checking targets.
	FaultRegBit
)

// String names the fault kind (used in trace events and reports).
func (k FaultKind) String() string {
	switch k {
	case FaultOffsetBit:
		return "offset-bit"
	case FaultFlagBit:
		return "flag-bit"
	case FaultRegBit:
		return "reg-bit"
	}
	return "?"
}

// Fault is a single planned transient fault. Branch faults (offset/flag
// bits) fire when the dynamic direct-branch counter reaches BranchIndex;
// register faults fire when the step counter reaches StepIndex.
type Fault struct {
	BranchIndex uint64 // 0-based count of executed direct branches
	Kind        FaultKind
	Bit         uint // offset: 0..31; flags: 0..NumFlagBits-1; reg: 0..31

	// StepIndex and Reg select the firing point and victim of a
	// FaultRegBit fault.
	StepIndex uint64
	Reg       isa.Reg

	// Pause makes the run return right after the firing step, with the
	// StopOutOfSteps a step budget ending there would give, so a caller
	// that only needs the firing runs no further. Calling Run again
	// continues exactly.
	Pause bool

	// Outcome, filled in when the fault fires.
	Fired       bool
	FiredStep   uint64 // machine step count when the fault fired
	FaultIP     uint32
	FaultInstr  isa.Instr
	CleanTaken  bool
	FaultTaken  bool
	CleanTarget uint32
	FaultTarget uint32
}

// StackWords is the default stack size appended above the data segment.
const StackWords = 1 << 14

// Machine is the simulated processor. A single Machine can execute both
// guest binaries (native runs) and translated code-cache contents (the DBT
// supplies the code slice and handles StopTrapOut exits).
type Machine struct {
	Regs  [isa.NumRegs]int32
	Flags isa.Flags
	IP    uint32
	Mem   *mem.Memory
	Costs *CostModel

	// Cycles accumulates the cost-model cycles; the DBT adds its own
	// translation/dispatch charges on top.
	Cycles uint64
	// Steps counts executed instructions.
	Steps uint64
	// DirectBranches counts executed direct branches (the fault-site
	// counter for the error model).
	DirectBranches uint64
	// IndirectBranches counts executed indirect transfers (ret, jmpr,
	// callr), which the error model excludes, as in the paper.
	IndirectBranches uint64
	// SigChecks counts executed signature-check branches (OpJrz). Under
	// the DBT this is exact — guest jrz terminators are rewritten to
	// compare-and-Jcc, so every jrz in the code cache belongs to a check
	// sequence — and approximate for native runs of guest code that uses
	// jrz itself.
	SigChecks uint64

	// Output is the observable output stream (OpOut); silent data
	// corruption is detected by comparing streams between runs.
	Output []int32

	// BranchHook, when set, observes every executed direct branch.
	BranchHook func(ev BranchEvent)

	// Fault, when non-nil, is the planned single transient fault.
	Fault *Fault
}

// New returns a machine with the default cost model and no memory.
func New() *Machine {
	return &Machine{Costs: DefaultCosts()}
}

// Reset prepares the machine to run program p from its entry point: zeroed
// registers and flags, fresh memory sized for the program's data segment
// plus the stack, SP at the top of memory.
func (m *Machine) Reset(p *isa.Program) {
	m.Regs = [isa.NumRegs]int32{}
	m.Flags = 0
	m.IP = p.Entry
	m.Mem = mem.New(p.DataWords + StackWords)
	m.Regs[isa.ESP] = int32(m.Mem.Size())
	m.Cycles = 0
	m.Steps = 0
	m.DirectBranches = 0
	m.IndirectBranches = 0
	m.SigChecks = 0
	m.Output = m.Output[:0]
}

// Run executes instructions from code starting at the current IP until a
// terminator, trap, the step budget is exhausted or a planted fault that
// asks to pause fires (Fault.Pause).
func (m *Machine) Run(code []isa.Instr, maxSteps uint64) Stop {
	for {
		if m.Steps >= maxSteps {
			return Stop{Reason: StopOutOfSteps, IP: m.IP}
		}
		if stop, done := m.Step(code); done {
			return stop
		}
	}
}

// RunProgram resets the machine and runs p natively to completion.
func (m *Machine) RunProgram(p *isa.Program, maxSteps uint64) Stop {
	m.Reset(p)
	return m.Run(code(p), maxSteps)
}

func code(p *isa.Program) []isa.Instr { return p.Code }

// Step executes a single instruction. It returns done=true when execution
// must stop (including OpHalt/OpReport/OpTrapOut, all traps and the firing
// step of a fault that asks to pause).
func (m *Machine) Step(codeSlice []isa.Instr) (Stop, bool) {
	ip := m.IP
	if ip == 0 || ip >= uint32(len(codeSlice)) {
		// Hardware protection: fetching outside the code region, or on
		// the null page (isa.NullPad), traps.
		return Stop{Reason: StopBadFetch, IP: ip}, true
	}
	in := codeSlice[ip]
	pause := false
	if f := m.Fault; f != nil && f.Kind == FaultRegBit && !f.Fired && m.Steps >= f.StepIndex {
		f.Fired = true
		f.FiredStep = m.Steps
		f.FaultIP = ip
		f.FaultInstr = in
		m.Regs[f.Reg%isa.Reg(isa.NumRegs)] ^= int32(1) << (f.Bit & 31)
		pause = f.Pause
	}
	m.Steps++
	m.Cycles += uint64(m.Costs.Of(in.Op))

	r := &m.Regs
	next := ip + 1

	switch in.Op {
	case isa.OpNop:
	case isa.OpHalt:
		return Stop{Reason: StopHalt, IP: ip}, true
	case isa.OpReport:
		return Stop{Reason: StopReport, IP: ip}, true
	case isa.OpTrapOut:
		return Stop{Reason: StopTrapOut, IP: ip}, true

	case isa.OpMovRI:
		r[in.RD] = in.Imm
	case isa.OpMovRR:
		r[in.RD] = r[in.RS1]
	case isa.OpLea:
		r[in.RD] = r[in.RS1] + in.Imm
	case isa.OpLea3:
		r[in.RD] = r[in.RS1] + r[in.RS2] + in.Imm
	case isa.OpXor3:
		r[in.RD] = r[in.RS1] ^ r[in.RS2] ^ in.Imm
	case isa.OpPushF:
		r[isa.ESP]--
		if err := m.Mem.Store(uint32(r[isa.ESP]), int32(m.Flags)); err != nil {
			return Stop{Reason: StopBadMemory, IP: ip, Detail: err.Error()}, true
		}
	case isa.OpPopF:
		v, err := m.Mem.Load(uint32(r[isa.ESP]))
		if err != nil {
			return Stop{Reason: StopBadMemory, IP: ip, Detail: err.Error()}, true
		}
		r[isa.ESP]++
		m.Flags = isa.Flags(v) & isa.FlagMask

	case isa.OpLoad:
		v, err := m.Mem.Load(uint32(r[in.RS1] + in.Imm))
		if err != nil {
			return Stop{Reason: StopBadMemory, IP: ip, Detail: err.Error()}, true
		}
		r[in.RD] = v
	case isa.OpStore:
		if err := m.Mem.Store(uint32(r[in.RS1]+in.Imm), r[in.RS2]); err != nil {
			return Stop{Reason: StopBadMemory, IP: ip, Detail: err.Error()}, true
		}
	case isa.OpPush:
		r[isa.ESP]--
		if err := m.Mem.Store(uint32(r[isa.ESP]), r[in.RS1]); err != nil {
			return Stop{Reason: StopBadMemory, IP: ip, Detail: err.Error()}, true
		}
	case isa.OpPop:
		v, err := m.Mem.Load(uint32(r[isa.ESP]))
		if err != nil {
			return Stop{Reason: StopBadMemory, IP: ip, Detail: err.Error()}, true
		}
		r[in.RD] = v
		r[isa.ESP]++

	case isa.OpAdd:
		a, b := r[in.RD], r[in.RS1]
		r[in.RD] = a + b
		m.Flags = isa.AddFlags(a, b)
	case isa.OpAddI:
		a := r[in.RD]
		r[in.RD] = a + in.Imm
		m.Flags = isa.AddFlags(a, in.Imm)
	case isa.OpSub:
		a, b := r[in.RD], r[in.RS1]
		r[in.RD] = a - b
		m.Flags = isa.SubFlags(a, b)
	case isa.OpSubI:
		a := r[in.RD]
		r[in.RD] = a - in.Imm
		m.Flags = isa.SubFlags(a, in.Imm)
	case isa.OpAnd:
		r[in.RD] &= r[in.RS1]
		m.Flags = isa.LogicFlags(r[in.RD])
	case isa.OpAndI:
		r[in.RD] &= in.Imm
		m.Flags = isa.LogicFlags(r[in.RD])
	case isa.OpOr:
		r[in.RD] |= r[in.RS1]
		m.Flags = isa.LogicFlags(r[in.RD])
	case isa.OpOrI:
		r[in.RD] |= in.Imm
		m.Flags = isa.LogicFlags(r[in.RD])
	case isa.OpXor:
		r[in.RD] ^= r[in.RS1]
		m.Flags = isa.LogicFlags(r[in.RD])
	case isa.OpXorI:
		r[in.RD] ^= in.Imm
		m.Flags = isa.LogicFlags(r[in.RD])
	case isa.OpShl:
		r[in.RD] = int32(uint32(r[in.RD]) << (uint32(r[in.RS1]) & 31))
		m.Flags = isa.LogicFlags(r[in.RD])
	case isa.OpShlI:
		r[in.RD] = int32(uint32(r[in.RD]) << (uint32(in.Imm) & 31))
		m.Flags = isa.LogicFlags(r[in.RD])
	case isa.OpShr:
		r[in.RD] = int32(uint32(r[in.RD]) >> (uint32(r[in.RS1]) & 31))
		m.Flags = isa.LogicFlags(r[in.RD])
	case isa.OpShrI:
		r[in.RD] = int32(uint32(r[in.RD]) >> (uint32(in.Imm) & 31))
		m.Flags = isa.LogicFlags(r[in.RD])
	case isa.OpMul:
		r[in.RD] *= r[in.RS1]
		m.Flags = isa.LogicFlags(r[in.RD])
	case isa.OpDiv:
		if r[in.RS1] == 0 {
			return Stop{Reason: StopDivZero, IP: ip}, true
		}
		r[in.RD] /= r[in.RS1]
		m.Flags = isa.LogicFlags(r[in.RD])

	case isa.OpCmp:
		m.Flags = isa.SubFlags(r[in.RD], r[in.RS1])
	case isa.OpCmpI:
		m.Flags = isa.SubFlags(r[in.RD], in.Imm)
	case isa.OpTest:
		m.Flags = isa.LogicFlags(r[in.RD] & r[in.RS1])

	case isa.OpFAdd:
		r[in.RD] = FAdd(r[in.RD], r[in.RS1])
	case isa.OpFSub:
		r[in.RD] = FSub(r[in.RD], r[in.RS1])
	case isa.OpFMul:
		r[in.RD] = FMul(r[in.RD], r[in.RS1])
	case isa.OpFDiv:
		r[in.RD] = FDiv(r[in.RD], r[in.RS1])

	case isa.OpJmp, isa.OpJcc, isa.OpJrz, isa.OpCall:
		var branchPause bool
		next, branchPause = m.directBranch(ip, in)
		pause = pause || branchPause // a register fault may fire on a branch
		if in.Op == isa.OpCall && next != ip+1 {
			r[isa.ESP]--
			if err := m.Mem.Store(uint32(r[isa.ESP]), int32(ip+1)); err != nil {
				return Stop{Reason: StopBadMemory, IP: ip, Detail: err.Error()}, true
			}
		}

	case isa.OpRet:
		v, err := m.Mem.Load(uint32(r[isa.ESP]))
		if err != nil {
			return Stop{Reason: StopBadMemory, IP: ip, Detail: err.Error()}, true
		}
		r[isa.ESP]++
		next = uint32(v)
		m.IndirectBranches++
	case isa.OpJmpR:
		next = uint32(r[in.RS1])
		m.IndirectBranches++
	case isa.OpCallR:
		r[isa.ESP]--
		if err := m.Mem.Store(uint32(r[isa.ESP]), int32(ip+1)); err != nil {
			return Stop{Reason: StopBadMemory, IP: ip, Detail: err.Error()}, true
		}
		next = uint32(r[in.RS1])
		m.IndirectBranches++

	case isa.OpCmov:
		if in.CmovCond().Eval(m.Flags) {
			r[in.RD] = r[in.RS1]
		}
	case isa.OpOut:
		m.Output = append(m.Output, r[in.RS1])

	default:
		// Undecodable opcode. Folding validity into the dispatch switch
		// (rather than a per-step Op.Valid() pre-check) makes decode free
		// for valid instructions: translated code-cache contents are
		// validated once at emission time, and guest binaries that do
		// carry junk opcodes still trap here exactly as before.
		return Stop{Reason: StopInvalidInstr, IP: ip, Detail: fmt.Sprintf("opcode %d", uint8(in.Op))}, true
	}

	m.IP = next
	if pause {
		return Stop{Reason: StopOutOfSteps, IP: next}, true
	}
	return Stop{}, false
}

// directBranch resolves a direct branch: evaluates the direction, fires
// a pending branch fault (FireBranch), fires the BranchHook, and returns
// the next IP and whether the fault fired here and asked to pause
// (Fault.Pause).
func (m *Machine) directBranch(ip uint32, in isa.Instr) (uint32, bool) {
	idx := m.DirectBranches
	m.DirectBranches++
	if in.Op == isa.OpJrz {
		m.SigChecks++
	}

	flags := m.Flags
	taken := m.taken(in, flags)
	target := ip + 1 + uint32(in.Imm)
	pause := false
	if f := m.Fault; f != nil && f.Kind != FaultRegBit && !f.Fired && idx == f.BranchIndex {
		flags = f.FireBranch(m.Steps, ip, in, flags, taken)
		taken, target, pause = f.FaultTaken, f.FaultTarget, f.Pause
	}
	if m.BranchHook != nil {
		m.BranchHook(BranchEvent{IP: ip, Instr: in, Flags: flags, Taken: taken, Target: target})
	}
	if taken {
		return target, pause
	}
	return ip + 1, pause
}

// FireBranch fires the branch fault f on the direct branch in at ip,
// which the clean run resolves with flags and direction cleanTaken, at
// machine step step (the branch's own step included): it fills every
// outcome field and returns the flags the faulted branch evaluates. An
// offset-bit fault corrupts the target of this one execution; a flag-bit
// fault flips the flags this one branch evaluates, which only a
// conditional jump reads (jrz tests a register), so the flags register
// keeps its clean value. The machine and the checkpoint site table
// (ckpt.SiteReader) both fire through it, so a fault reads the same
// whichever fired it.
func (f *Fault) FireBranch(step uint64, ip uint32, in isa.Instr, flags isa.Flags, cleanTaken bool) isa.Flags {
	imm := in.Imm
	f.Fired, f.FiredStep, f.FaultIP, f.FaultInstr = true, step, ip, in
	f.CleanTaken, f.FaultTaken = cleanTaken, cleanTaken
	f.CleanTarget = ip + 1 + uint32(imm)
	switch f.Kind {
	case FaultOffsetBit:
		imm ^= int32(1) << (f.Bit & 31)
	case FaultFlagBit:
		flags ^= isa.Flags(1) << (f.Bit % isa.NumFlagBits)
		if in.Op == isa.OpJcc {
			f.FaultTaken = in.Cond().Eval(flags)
		}
	}
	f.FaultTarget = ip + 1 + uint32(imm)
	return flags
}

// taken evaluates whether the branch is taken under the given flags and
// the current registers: the clean direction, from which FireBranch
// derives a faulted one.
func (m *Machine) taken(in isa.Instr, flags isa.Flags) bool {
	switch in.Op {
	case isa.OpJmp, isa.OpCall:
		return true
	case isa.OpJcc:
		return in.Cond().Eval(flags)
	case isa.OpJrz:
		return m.Regs[in.RS1] == 0
	}
	return false
}
