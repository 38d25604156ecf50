package inject

import (
	"slices"

	"repro/internal/comp"
	"repro/internal/cpu"
	"repro/internal/dbt"
	"repro/internal/isa"
)

// The tail memo: restart tails run once per worker. A fault in a native
// (CFCSS/ECCA) program often returns, within a few steps, through a stack
// word the run never wrote. That word is 0, and address 0 is the
// instrumenter's entry stub, so the program restarts and runs in full
// again. Its sibling samples restart too, from states that differ in
// words the restarted program never lets matter. Each worker of a
// compiled-backend checkpoint campaign therefore watches the program entry
// (comp.Engine.WatchIP) from the sample's restore on, and resolves a fired
// sample's landing there as follows:
//
//   - Hit: the landing agrees with a memo entry on the entry's relevant
//     set. The sample's result is synthesized from the entry's tail.
//   - Miss, shadow allowed: the worker has run fewer than memoShadows
//     shadow tails and at least shadowMinLeft samples remain in its share.
//     The tail runs on cpu.Shadow, which yields the sample's own result
//     and, when tracking held and the tail halted, a new entry.
//   - Otherwise the tail runs as any other.
//
// The exactness rule. Sources are the landing locations the tail reads
// before it writes them (registers, flags, memory words), one bit of a
// 64-bit label each; more than 64 sources make no entry. Every written
// value carries the union of the labels of the values it was computed
// from. Sinks are the values that steer the run or leave it: Jcc and cmov
// flags, the jrz register, every memory address (the load/store base, and
// esp for push, pop, call, callr, ret, pushf and popf), the targets of
// ret, jmpr and callr, both operands of div, and the operand of out. A
// source whose label reaches a sink joins the relevant set R. An entry
// holds R's (location, value) pairs at the landing, the tail's step and
// counter deltas, its stop and its output words, and is made only from a
// tail that halts within the step budget. A hit needs the IP at the entry,
// every location in R equal, and landing steps plus tail steps within the
// budget. Then every branch, address, trap and output word of the
// sample's tail is computed from the values the entry's tail used, so the
// sample's counters are the landing's plus the deltas, its output is its
// prefix plus the tail's words, and its outcome goes through the same
// benign/SDC comparison as an executed tail. An opcode the shadow has no
// rule for makes no entry; the stepper never guesses.
//
// The memo is per worker and per campaign, so reports and telemetry stay
// a function of the campaign and its worker count. A hit counts as
// Rejoined.

// shadowMinLeft is the fewest samples that must remain in a worker's
// share for a miss to pay for a shadow tail. A shadow tail costs about
// four compiled tails, three more than the tail it replaces, and about 9%
// of a native campaign's samples land on the entry, so 64 remaining
// samples expect about six landings, enough to win back the three tails
// when half of them hit. Interactive-sized campaigns (at most 30 samples
// per worker) never pay for one.
const shadowMinLeft = 64

// memoShadows caps the shadow tails, and so the entries, per worker. Most
// landings of a program share one stack depth, so one entry serves most
// of them; the cap bounds the waste on a program whose landings never
// agree.
const memoShadows = 4

// memoEntry is one restart tail: its relevant landing locations and what
// the tail did from the landing on.
type memoEntry struct {
	relevant []cpu.Loc
	stop     cpu.Stop
	steps    uint64
	cycles   uint64
	direct   uint64
	sigCheck uint64
	output   []int32
}

// tailMemo is one worker's memo over a native target's entry.
type tailMemo struct {
	entry   uint32
	code    []isa.Instr
	view    *comp.Engine
	entries []memoEntry
	shadows int
	sh      cpu.Shadow
	res     dbt.Result
}

// arm watches the entry on the sample's engine view; a nil memo does
// nothing.
func (tm *tailMemo) arm() {
	if tm != nil {
		tm.view.WatchIP(tm.entry)
	}
}

// disarm stops watching the entry.
func (tm *tailMemo) disarm() { tm.view.Watch(0, nil, 0) }

// stepOff executes the one instruction a sample that has not fired yet
// stopped on (the entry, where a sample restored at point 0 starts). A
// non-terminal step reports StopOutOfSteps at the new IP, so the caller
// keeps advancing.
func (tm *tailMemo) stepOff(m *cpu.Machine) cpu.Stop {
	if stop, done := m.Step(tm.code); done {
		return stop
	}
	return cpu.Stop{Reason: cpu.StopOutOfSteps, IP: m.IP}
}

// lookup returns the entry whose tail m's landing provably repeats within
// maxSteps, or nil.
func (tm *tailMemo) lookup(m *cpu.Machine, maxSteps uint64) *memoEntry {
	if m.IP != tm.entry {
		return nil
	}
next:
	for i := range tm.entries {
		e := &tm.entries[i]
		if m.Steps+e.steps > maxSteps {
			continue
		}
		for _, l := range e.relevant {
			if !l.Holds(m) {
				continue next
			}
		}
		return e
	}
	return nil
}

// synthesize returns the result of running e's tail on m's landing. It
// appends to m's output and reuses one Result, valid until the next call.
func (tm *tailMemo) synthesize(m *cpu.Machine, e *memoEntry, cs comp.Stats) *dbt.Result {
	tm.res = dbt.Result{
		Stop:           e.stop,
		Cycles:         m.Cycles + e.cycles,
		Steps:          m.Steps + e.steps,
		Output:         append(m.Output, e.output...),
		DirectBranches: m.DirectBranches + e.direct,
		SigChecks:      m.SigChecks + e.sigCheck,
		Comp:           cs,
	}
	return &tm.res
}

// mayShadow reports whether a miss with left samples still to come in the
// worker's share runs its tail on the shadow stepper.
func (tm *tailMemo) mayShadow(left int) bool {
	return tm.shadows < memoShadows && left >= shadowMinLeft
}

// shadow runs m's landed tail on the shadow stepper within maxSteps and
// keeps it as an entry when tracking held and it halted. done is false
// when tracking was lost: m is then at a step boundary for the caller to
// finish on its engine.
func (tm *tailMemo) shadow(m *cpu.Machine, maxSteps uint64) (cpu.Stop, bool) {
	tm.shadows++
	land := m.CaptureState()
	out := len(m.Output)
	tm.sh.Begin(m)
	stop, done := tm.sh.Run(m, tm.code, maxSteps)
	if !done || stop.Reason != cpu.StopHalt {
		return stop, done
	}
	if rel, ok := tm.sh.Relevant(nil); ok {
		tm.entries = append(tm.entries, memoEntry{
			relevant: rel,
			stop:     stop,
			steps:    m.Steps - land.Steps,
			cycles:   m.Cycles - land.Cycles,
			direct:   m.DirectBranches - land.DirectBranches,
			sigCheck: m.SigChecks - land.SigChecks,
			output:   slices.Clone(m.Output[out:]),
		})
	}
	return stop, true
}
