package sig

import (
	"fmt"

	"repro/internal/obs"
)

// Result reports whether a scheme satisfies the paper's correctness
// conditions on a given graph.
type Result struct {
	Scheme string
	// Sufficient: every single control-flow error that reaches at least one
	// subsequent CHECK_SIG is detected (no false negatives).
	Sufficient bool
	// Necessary: error-free executions never fail a check (no false
	// positives).
	Necessary bool
	// FalseNegative is a witness path for a missed error (nil when
	// Sufficient). Events are human-readable.
	FalseNegative []string
	// FalsePositive is a witness path for a spurious report (nil when
	// Necessary).
	FalsePositive []string
	// StatesExplored counts distinct (node, state) pairs visited.
	StatesExplored int
}

// Verify exhaustively model-checks the scheme against every execution of
// the graph containing at most one control-flow error. Errors occur only at
// tail-block exits (Section 4.1: the head→tail fall-through cannot err) and
// may land on any node; landing "past" a node's entry instrumentation
// (Assumption 1 makes it atomic) is modeled by the skip variant. The
// exploration memoizes on (node, state), so it terminates for any scheme
// whose state space is finite on the given graph.
func Verify(g *Graph, sch Scheme) Result {
	return VerifyObs(g, sch, nil)
}

// VerifyObs is Verify with observability: the exploration totals (states
// explored, checks passed and failed, the verdict) are published to reg,
// labeled by scheme. reg may be nil.
func VerifyObs(g *Graph, sch Scheme, reg *obs.Registry) Result {
	if err := g.Validate(); err != nil {
		panic(fmt.Sprintf("sig.Verify: %v", err))
	}
	v := &verifier{
		sg:         Split(g),
		sch:        sch,
		cleanSeen:  map[cleanKey]bool{},
		escapeMemo: map[escKey]escVal{},
	}
	res := Result{Scheme: sch.Name(), Sufficient: true, Necessary: true}
	v.res = &res
	v.exploreClean(v.sg.Entry, sch.Init(v.sg), []string{fmt.Sprintf("enter %s", v.nodeName(v.sg.Entry))})
	res.StatesExplored = len(v.cleanSeen) + len(v.escapeMemo)
	if reg != nil {
		l := fmt.Sprintf("{scheme=%q}", sch.Name())
		reg.Counter("sig_states_explored_total" + l).Add(uint64(res.StatesExplored))
		reg.Counter("sig_checks_passed_total" + l).Add(v.checksPassed)
		reg.Counter("sig_checks_failed_total" + l).Add(v.checksFailed)
		reg.Gauge("sig_sufficient" + l).Set(boolGauge(res.Sufficient))
		reg.Gauge("sig_necessary" + l).Set(boolGauge(res.Necessary))
	}
	return res
}

func boolGauge(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

type cleanKey struct {
	n int
	s State
}

type escKey struct {
	n        int
	s        State
	runEnter bool
}

type escVal struct {
	escapes bool
	// withCheck marks escapes on which at least one CHECK_SIG executed
	// (and passed) after the error. Assumption 2 of the paper admits only
	// errors that finally reach a CHECK_SIG, so check-free escapes do not
	// count against the sufficient condition.
	withCheck bool
	trace     []string
}

type verifier struct {
	sg         *SplitGraph
	sch        Scheme
	res        *Result
	cleanSeen  map[cleanKey]bool
	escapeMemo map[escKey]escVal
	escStack   map[escKey]bool

	checksPassed uint64
	checksFailed uint64
}

// noteCheck counts one CHECK_SIG evaluation (called only for nodes that
// carry an entry check).
func (v *verifier) noteCheck(pass bool) {
	if pass {
		v.checksPassed++
	} else {
		v.checksFailed++
	}
}

func (v *verifier) nodeName(n int) string {
	node := v.sg.Nodes[n]
	part := "t"
	if node.IsHead {
		part = "h"
	}
	return fmt.Sprintf("B%d%s", node.Block, part)
}

// exploreClean walks all error-free executions, firing checks, and at every
// tail exit enumerates all single-error deviations.
func (v *verifier) exploreClean(n int, s State, path []string) {
	key := cleanKey{n, s}
	if v.cleanSeen[key] {
		return
	}
	v.cleanSeen[key] = true

	st, ok := v.sch.Enter(v.sg, s, n)
	if v.sch.HasEntryCheck(v.sg, n) {
		v.noteCheck(ok)
	}
	if !ok {
		if v.res.Necessary {
			v.res.Necessary = false
			v.res.FalsePositive = append(append([]string{}, path...),
				fmt.Sprintf("CHECK_SIG fails at %s on clean path", v.nodeName(n)))
		}
		return
	}
	node := v.sg.Nodes[n]
	for _, logical := range node.Succs {
		gen := v.sch.Gen(v.sg, st, n, logical)
		// Clean continuation.
		v.exploreClean(logical, gen, append(append([]string{}, path...),
			fmt.Sprintf("%s -> %s", v.nodeName(n), v.nodeName(logical))))
		// Single-error deviations: only tail exits can err.
		if node.IsHead {
			continue
		}
		if v.res.Sufficient {
			v.tryErrors(n, gen, logical, path)
		}
	}
}

// tryErrors enumerates every physical landing site for an error at the exit
// of tail n whose logical target was logical, with GEN_SIG already applied
// (the instrumentation ran; the branch went astray).
func (v *verifier) tryErrors(n int, gen State, logical int, path []string) {
	for p := range v.sg.Nodes {
		for _, skip := range [...]bool{false, true} {
			if skip && !v.sch.HasEntryCheck(v.sg, p) {
				continue // nothing to skip
			}
			if p == logical && !skip {
				continue // not an error: physical == logical
			}
			v.escStack = map[escKey]bool{}
			if val := v.escapes(p, gen, !skip); val.escapes && val.withCheck {
				v.res.Sufficient = false
				ev := fmt.Sprintf("ERROR: %s exits toward %s but lands on %s (skip=%v)",
					v.nodeName(n), v.nodeName(logical), v.nodeName(p), skip)
				v.res.FalseNegative = append(append(append([]string{}, path...), ev), val.trace...)
				return
			}
		}
	}
}

// escapes reports whether execution starting at node n with state s (and
// runEnter telling whether n's entry instrumentation executes) can continue
// forever or reach program exit without any CHECK_SIG failing. Detection on
// *every* path means the error cannot escape; a data-dependent branch that
// avoids detection on one path is enough to escape.
func (v *verifier) escapes(n int, s State, runEnter bool) escVal {
	key := escKey{n, s, runEnter}
	if val, done := v.escapeMemo[key]; done {
		return val
	}
	if v.escStack[key] {
		// Cycle with no detection: the error survives forever (e.g. ECF's
		// category-C loop). Checks inside the cycle passed, so Assumption 2
		// is satisfied.
		return escVal{escapes: true, trace: []string{fmt.Sprintf("cycle at %s with stable wrong state", v.nodeName(n))}}
	}
	v.escStack[key] = true
	defer delete(v.escStack, key)

	st := s
	ranCheck := false
	if runEnter {
		ranCheck = v.sch.HasEntryCheck(v.sg, n)
		var ok bool
		st, ok = v.sch.Enter(v.sg, s, n)
		if ranCheck {
			v.noteCheck(ok)
		}
		if !ok {
			val := escVal{escapes: false}
			v.escapeMemo[key] = val
			return val
		}
	}
	node := v.sg.Nodes[n]
	if len(node.Succs) == 0 {
		// Reached program exit without a failing check.
		val := escVal{
			escapes:   true,
			withCheck: ranCheck,
			trace:     []string{fmt.Sprintf("exit at %s undetected", v.nodeName(n))},
		}
		v.escapeMemo[key] = val
		return val
	}
	// Prefer an escape on which a check executed (the only kind that counts
	// per Assumption 2); fall back to reporting a check-free escape.
	var fallback *escVal
	for _, logical := range node.Succs {
		gen := v.sch.Gen(v.sg, st, n, logical)
		if val := v.escapes(logical, gen, true); val.escapes {
			out := escVal{
				escapes:   true,
				withCheck: ranCheck || val.withCheck,
				trace:     append([]string{fmt.Sprintf("%s -> %s", v.nodeName(n), v.nodeName(logical))}, val.trace...),
			}
			if out.withCheck {
				// A cycle found below depends only on (node, state), which
				// is part of the key; memoizing is sound.
				v.escapeMemo[key] = out
				return out
			}
			fallback = &out
		}
	}
	if fallback != nil {
		// A check-free escape may be an artifact of a live stack-cycle hit
		// whose checks sit "behind" this frame; such results are context
		// dependent, so they must not be memoized. (escapes=false results
		// are always pure — stack hits only ever return true — and
		// withCheck=true results carry a genuine witness; both are sound
		// to cache.)
		return *fallback
	}
	val := escVal{escapes: false}
	v.escapeMemo[key] = val
	return val
}
