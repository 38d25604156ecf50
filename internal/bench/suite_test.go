package bench

import (
	"context"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/inject"
	"repro/internal/obs"
)

// TestSuiteServesCampaignFigures: the dfc and latency figures run through
// the suite like the others, and the suite prints the same tables their
// generators format, each followed by a blank line.
func TestSuiteServesCampaignFigures(t *testing.T) {
	const scale, samples, seed = 0.04, 40, 3
	opts := inject.Options{Workers: 2, CkptInterval: -1}
	var out strings.Builder
	err := RunSuite(context.Background(), SuiteConfig{
		Scale: scale, Samples: samples, Seed: seed,
		Figures: []string{"dfc", "latency"}, Options: opts,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := DataFlowCoverage(context.Background(), scale, samples, seed, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	policies, err := PolicyLatency(context.Background(), scale, samples, seed, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := FormatDataFlowCoverage(reports) + "\n" + FormatPolicyLatency(policies) + "\n"; out.String() != want {
		t.Errorf("suite output:\n%s\nwant:\n%s", out.String(), want)
	}
}

// TestSuiteRunsCheckpointEngine: the suite runs its campaign figures on
// the checkpoint engine with automatic spacing, as cfc-bench does, so the
// coverage table carries one engine line per technique.
func TestSuiteRunsCheckpointEngine(t *testing.T) {
	var out strings.Builder
	err := RunSuite(context.Background(), SuiteConfig{
		Scale: 0.02, Samples: 20, Figures: []string{"coverage"},
		Options: inject.Options{Workers: 2, CkptInterval: -1},
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out.String(), "\nengine: "); n != len(check.Techniques) {
		t.Errorf("coverage table has %d engine lines, want %d:\n%s", n, len(check.Techniques), out.String())
	}
}

// TestSuiteRejectsUnknownFigure: a bad figure name fails the run before
// any work, wherever it stands in the list, not after the figures before
// it have run.
func TestSuiteRejectsUnknownFigure(t *testing.T) {
	metrics := obs.NewRegistry()
	for _, figs := range [][]string{{"nope"}, {"dbt", "nope"}} {
		var out strings.Builder
		err := RunSuite(context.Background(), SuiteConfig{
			Figures: figs, Options: inject.Options{Metrics: metrics},
		}, &out)
		if err == nil || !strings.Contains(err.Error(), "unknown figure") {
			t.Errorf("%v: err %v, want one naming the unknown figure", figs, err)
		}
		if out.Len() != 0 {
			t.Errorf("%v: wrote %q before failing", figs, out.String())
		}
	}
	if snap := metrics.Snapshot(); len(snap.Spans) != 0 {
		t.Errorf("rejected runs ran figures: spans %v", snap.Spans)
	}
}

// TestSuiteRecordsFigureSpan: -metrics receives each figure's wall-clock
// and its gauges.
func TestSuiteRecordsFigureSpan(t *testing.T) {
	metrics := obs.NewRegistry()
	var out strings.Builder
	err := RunSuite(context.Background(), SuiteConfig{
		Figures: []string{"dbt"}, Options: inject.Options{Workers: 2, Metrics: metrics},
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "geomean overhead") {
		t.Errorf("dbt output:\n%s", out.String())
	}
	snap := metrics.Snapshot()
	if _, ok := snap.Spans[`bench_figure{figure="dbt"}`]; !ok {
		t.Errorf("no bench_figure span; spans: %v", snap.Spans)
	}
	if _, ok := snap.Gauges[`bench_dbt_overhead_milli{benchmark="geomean"}`]; !ok {
		t.Errorf("no dbt geomean gauge; gauges: %v", snap.Gauges)
	}
}
