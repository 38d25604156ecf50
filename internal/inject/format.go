package inject

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/comp"
	"repro/internal/errmodel"
)

// FormatReport renders one campaign as a per-category outcome table.
func FormatReport(r *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s / %s / %s — %d samples (%d not fired)\n",
		r.Program, r.Technique, r.Policy, r.Samples, r.NotFired)
	fmt.Fprintf(&b, "%-9s %8s %8s %8s %8s %8s %9s\n",
		"Category", "det-sw", "det-hw", "benign", "SDC", "hang", "coverage")
	cats := append(errmodel.SDCCategories(), errmodel.CatF, errmodel.CatNoError, errmodel.CatData)
	for _, c := range cats {
		a := r.ByCat[c]
		if a == nil {
			continue
		}
		fmt.Fprintf(&b, "%-9s %8d %8d %8d %8d %8d %8.1f%%\n",
			c, a.Count[OutDetectedSW], a.Count[OutDetectedHW], a.Count[OutBenign],
			a.Count[OutSDC], a.Count[OutHang], a.Coverage()*100)
	}
	t := &r.Totals
	fmt.Fprintf(&b, "%-9s %8d %8d %8d %8d %8d %8.1f%%\n",
		"total", t.Count[OutDetectedSW], t.Count[OutDetectedHW], t.Count[OutBenign],
		t.Count[OutSDC], t.Count[OutHang], t.Coverage()*100)
	if r.LatencyN > 0 {
		fmt.Fprintf(&b, "mean detection latency: %.0f instructions\n", r.MeanLatency())
	}
	st := r.Translator
	if st.BlocksTranslated > 0 {
		fmt.Fprintf(&b, "translator: %d blocks (%d guest instrs), %d traces, %d check sites, %d dispatches, %d indirect lookups\n",
			st.BlocksTranslated, st.GuestInstrsTranslated, st.TracesFormed,
			st.CheckSites, st.Dispatches, st.IndirectLookups)
	}
	if c := r.Compiled; c.BlocksCompiled > 0 {
		// Compiled-backend telemetry; elided when zero (the step
		// backend) so FormatNormalized output is unchanged.
		fmt.Fprintf(&b, "compiled: %d blocks, %d trace promotions, %d chain hits, %d interpreted steps\n",
			c.BlocksCompiled, c.TracePromotions, c.ChainHits, c.InterpretedSteps)
	}
	if r.ShortOffset+r.ShortLive+r.Rejoined > 0 {
		// Engine telemetry; elided when zero so FormatNormalized output is
		// unchanged (the counters are zeroed there).
		fmt.Fprintf(&b, "engine: %d executed (%d rejoined), %d offset short-circuits, %d flag short-circuits\n",
			r.Executed, r.Rejoined, r.ShortOffset, r.ShortLive)
	}
	if r.Elapsed > 0 {
		fmt.Fprintf(&b, "throughput: %.0f runs/s (%d workers, %v wall-clock)\n",
			r.Throughput(), r.Workers, r.Elapsed.Round(time.Millisecond))
	}
	return b.String()
}

// FormatNormalized renders the report with the wall-clock fields zeroed:
// everything left is a pure function of (program, cfg minus Workers and
// CkptInterval), so two renderings are byte-identical exactly when the
// classified results are. The determinism checks in cfc-inject and the
// batch server's CI smoke diff this form across engines, worker counts and
// cache temperatures.
func FormatNormalized(r *Report) string {
	n := *r
	n.Workers = 0
	n.Elapsed = 0
	// Engine telemetry: the checkpoint engine synthesizes tails the replay
	// engine executes; the classified results must still match.
	n.Executed = 0
	n.ShortOffset = 0
	n.ShortLive = 0
	n.Rejoined = 0
	n.Compiled = comp.Stats{}
	return FormatReport(&n)
}
