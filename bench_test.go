package repro_test

// One benchmark per paper artifact: running `go test -bench=. -benchmem`
// regenerates every table and figure at a reduced scale and reports the
// headline numbers as benchmark metrics (geomean slowdowns, coverage,
// overhead percentages). The cmd/cfc-bench, cmd/cfc-errmodel and
// cmd/cfc-inject tools print the full tables at scale 1.0.

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/errmodel"
	"repro/internal/inject"
)

// benchScale keeps a full -bench=. run in the tens of seconds.
const benchScale = 0.2

// BenchmarkFigure2ErrorModel regenerates the Figure 2 fault-site tables
// for both suites and reports the headline category probabilities.
func BenchmarkFigure2ErrorModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		intTab, fpTab, err := bench.Figure2(benchScale, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(intTab.CategoryProb(errmodel.CatF)*100, "int-F-%")
		b.ReportMetric(fpTab.CategoryProb(errmodel.CatF)*100, "fp-F-%")
	}
}

// BenchmarkFigure3Normalized regenerates the normalized A-E distribution.
func BenchmarkFigure3Normalized(b *testing.B) {
	for i := 0; i < b.N; i++ {
		intTab, fpTab, err := bench.Figure2(benchScale, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(intTab.Normalized()[errmodel.CatE]*100, "int-E-%")
		b.ReportMetric(fpTab.Normalized()[errmodel.CatC]*100, "fp-C-%")
	}
}

// BenchmarkFigure12Slowdown regenerates the per-benchmark slowdowns of
// RCF/EdgCF/ECF and reports the suite geomeans.
func BenchmarkFigure12Slowdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Figure12(benchScale, 0, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.GeoAll[0], "RCF-geomean")
		b.ReportMetric(t.GeoAll[1], "EdgCF-geomean")
		b.ReportMetric(t.GeoAll[2], "ECF-geomean")
	}
}

// BenchmarkFigure14UpdateStyle regenerates the Jcc vs CMOVcc table.
func BenchmarkFigure14UpdateStyle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Figure14(benchScale, 0, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.Slowdown[0][0], "RCF-Jcc")
		b.ReportMetric(t.Slowdown[1][0], "RCF-CMOVcc")
	}
}

// BenchmarkFigure15Policies regenerates the checking-policy sweep for RCF.
func BenchmarkFigure15Policies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Figure15(benchScale, 0, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.GeoAll[0], "ALLBB")
		b.ReportMetric(t.GeoAll[1], "RET-BE")
		b.ReportMetric(t.GeoAll[3], "END")
	}
}

// BenchmarkDBTBaseline measures the uninstrumented translator against
// native execution (the paper's ~12%).
func BenchmarkDBTBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, avg, err := bench.DBTBaseline(benchScale, 0, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(avg*100, "overhead-%")
	}
}

// BenchmarkCoverageCampaign runs the fault-injection coverage matrix (the
// paper's Section 3 claims, measured).
func BenchmarkCoverageCampaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reports, err := bench.CoverageMatrix(context.Background(), bench.CoverageConfig{
			Scale:   0.05,
			Samples: 150,
			Seed:    1,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range reports {
			if r.Technique == "RCF" {
				b.ReportMetric(r.Totals.Coverage()*100, "RCF-coverage-%")
			}
			if r.Technique == "none" {
				b.ReportMetric(float64(r.Totals.Count[inject.OutSDC]), "none-SDCs")
			}
		}
	}
}

// BenchmarkAblations measures the design choices DESIGN.md calls out:
// chaining, traces, xor-vs-lea updates, and data-flow checking stacking.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Ablations(benchScale, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Name {
			case "no-chaining", "EdgCF-xor+pushf", "RCF+DFC":
				b.ReportMetric(r.Slowdown, r.Name)
			}
		}
	}
}

// BenchmarkDataFlowCoverage runs the register-fault campaigns that the
// data-flow checking transform (the paper's future work) targets.
func BenchmarkDataFlowCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reports, err := bench.DataFlowCoverage(context.Background(), 0.04, 120, 1, inject.Options{CkptInterval: -1}, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range reports {
			if r.Technique == "RCF+DFC" {
				b.ReportMetric(r.Totals.Coverage()*100, "RCF+DFC-coverage-%")
			}
		}
	}
}

// BenchmarkNativeInterpreter reports raw interpreter speed, the substrate
// cost underneath every experiment.
func BenchmarkNativeInterpreter(b *testing.B) {
	p, err := core.Workload("183.equake", benchScale)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var steps uint64
	for i := 0; i < b.N; i++ {
		res := core.RunNative(p, bench.DefaultMaxSteps)
		steps += res.Steps
	}
	b.ReportMetric(float64(steps)/float64(b.N), "guest-instrs/op")
}
