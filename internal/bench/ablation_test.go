package bench

import (
	"context"
	"strings"
	"testing"

	"repro/internal/inject"
)

func TestAblationsShape(t *testing.T) {
	rows, err := Ablations(0.1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, r := range rows {
		byName[r.Name] = r.Slowdown
	}
	// Chaining and traces are wins: disabling them slows things down.
	if byName["no-chaining"] <= 1.0 {
		t.Errorf("no-chaining = %.3f, want > 1 (chaining is a win)", byName["no-chaining"])
	}
	// Traces are roughly cost-neutral under a pure cycle-count model: the
	// eliminated jumps pay for the profiling dispatches and the duplicate
	// translation. Their real-hardware value (fetch locality, layout) is
	// outside this model — an honest negative result, asserted as such.
	if byName["no-traces"] < 0.9 || byName["no-traces"] > 1.1 {
		t.Errorf("no-traces = %.3f, want roughly neutral", byName["no-traces"])
	}
	// The Section 5.1 argument: safe xor costs more than lea.
	if byName["EdgCF-xor+pushf"] <= byName["EdgCF-lea"] {
		t.Errorf("xor+pushf (%.3f) should exceed lea (%.3f)",
			byName["EdgCF-xor+pushf"], byName["EdgCF-lea"])
	}
	// Stacking protections stacks costs.
	if byName["RCF+DFC"] <= byName["RCF"] || byName["RCF+DFC"] <= byName["DFC"] {
		t.Errorf("RCF+DFC (%.3f) should exceed RCF (%.3f) and DFC (%.3f)",
			byName["RCF+DFC"], byName["RCF"], byName["DFC"])
	}
	if byName["DFC+cmp"] <= byName["DFC"] {
		t.Errorf("DFC+cmp (%.3f) should exceed DFC (%.3f)", byName["DFC+cmp"], byName["DFC"])
	}
	s := FormatAblations(rows)
	if !strings.Contains(s, "no-chaining") || !strings.Contains(s, "RCF+DFC") {
		t.Errorf("format:\n%s", s)
	}
}

func TestDataFlowCoverageShape(t *testing.T) {
	reports, err := DataFlowCoverage(context.Background(), 0.04, 150, 11, inject.Options{Workers: 2, CkptInterval: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 4 {
		t.Fatalf("reports = %d", len(reports))
	}
	cov := map[string]float64{}
	sdc := map[string]int{}
	for _, r := range reports {
		cov[r.Technique] = r.Totals.Coverage()
		sdc[r.Technique] = r.Totals.Count[inject.OutSDC]
	}
	// Control-flow checking alone barely helps against data faults; the
	// data-flow transform must raise coverage and cut SDCs.
	if cov["RCF+DFC"] <= cov["RCF"] {
		t.Errorf("RCF+DFC coverage %.3f <= RCF %.3f", cov["RCF+DFC"], cov["RCF"])
	}
	if sdc["RCF+DFC"] >= sdc["none"] {
		t.Errorf("RCF+DFC SDCs %d >= none %d", sdc["RCF+DFC"], sdc["none"])
	}
	if cov["RCF+DFC+cmp"] < cov["RCF+DFC"] {
		t.Errorf("adding cmp checks lowered coverage: %.3f < %.3f",
			cov["RCF+DFC+cmp"], cov["RCF+DFC"])
	}
	s := FormatDataFlowCoverage(reports)
	if !strings.Contains(s, "RCF+DFC") {
		t.Errorf("format:\n%s", s)
	}
}
