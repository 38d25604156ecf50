package bench

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/dbt"
	"repro/internal/errmodel"
	"repro/internal/inject"
	"repro/internal/par"
	"repro/internal/workloads"

	"repro/internal/check"
)

// AblationRow is one configuration's geomean slowdown relative to the
// plain (chained, traced, uninstrumented) translator.
type AblationRow struct {
	Name     string
	Slowdown float64
	Note     string
}

// Ablations measures the design choices DESIGN.md calls out, each relative
// to the default uninstrumented translator:
//
//   - block chaining off (every edge dispatches through the runtime)
//   - hot-trace backend off
//   - EdgCF with lea updates vs the safe xor+pushf/popf variant (the
//     Section 5.1 argument)
//   - data-flow checking alone, and stacked on RCF (the paper's future
//     work, with and without compare-operand checks)
//
// build may be nil (see buildFn).
func Ablations(scale float64, workers int, build buildFn) ([]AblationRow, error) {
	type cfg struct {
		name string
		note string
		opts func() dbt.Options
	}
	cfgs := []cfg{
		{"no-chaining", "every block transfer pays a dispatch", func() dbt.Options {
			return dbt.Options{NoChaining: true}
		}},
		{"no-traces", "hot loops stay as chained single blocks", func() dbt.Options {
			return dbt.Options{TraceThreshold: -1}
		}},
		{"EdgCF-lea", "the paper's flag-transparent update", func() dbt.Options {
			return dbt.Options{Technique: &check.EdgCF{Style: dbt.UpdateJcc}}
		}},
		{"EdgCF-xor+pushf", "xor updates made safe with pushf/popf", func() dbt.Options {
			return dbt.Options{Technique: &check.EdgCFXor{Style: dbt.UpdateJcc, PreserveFlags: true}}
		}},
		{"DFC", "data-flow duplication, store/out checks", func() dbt.Options {
			return dbt.Options{Body: &check.DFC{}}
		}},
		{"DFC+cmp", "also checks compare operands", func() dbt.Options {
			return dbt.Options{Body: &check.DFC{SyncAtCmps: true}}
		}},
		{"RCF", "control-flow checking only", func() dbt.Options {
			return dbt.Options{Technique: &check.RCF{Style: dbt.UpdateJcc}}
		}},
		{"RCF+DFC", "full control-flow + data-flow protection", func() dbt.Options {
			return dbt.Options{Technique: &check.RCF{Style: dbt.UpdateJcc}, Body: &check.DFC{}}
		}},
	}

	profs := workloads.All()
	// perWorkload[w][c]: workload w's ratio under configuration c; the jobs
	// fan across workers, the geomeans fold in workload order.
	perWorkload := make([][]float64, len(profs))
	bf := buildOrDefault(build)
	err := par.ForEach(len(profs), workers, func(w int) error {
		prof := profs[w]
		p, err := bf(prof.Name, scale)
		if err != nil {
			return err
		}
		base := dbt.New(p, dbt.Options{}).Run(nil, DefaultMaxSteps)
		if base.Stop.Reason.String() != "halt" {
			return fmt.Errorf("%s: baseline %v", prof.Name, base.Stop)
		}
		ratios := make([]float64, len(cfgs))
		for i, c := range cfgs {
			res := dbt.New(p, c.opts()).Run(nil, DefaultMaxSteps)
			if res.Stop.Reason.String() != "halt" {
				return fmt.Errorf("%s/%s: %v", prof.Name, c.name, res.Stop)
			}
			ratios[i] = float64(res.Cycles) / float64(base.Cycles)
		}
		perWorkload[w] = ratios
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]AblationRow, len(cfgs))
	for i, c := range cfgs {
		all := make([]float64, len(profs))
		for w := range profs {
			all[w] = perWorkload[w][i]
		}
		rows[i] = AblationRow{Name: c.name, Slowdown: Geomean(all), Note: c.note}
	}
	return rows, nil
}

// FormatAblations renders the ablation table.
func FormatAblations(rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Ablations — geomean slowdown vs the default uninstrumented translator")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-18s %6.3fx   %s\n", r.Name, r.Slowdown, r.Note)
	}
	return b.String()
}

// DataFlowCoverage runs register-bit fault campaigns (the data errors the
// paper's future-work data-flow checking targets) under increasing
// protection. opts forwards to every campaign (Workers shards each
// campaign's samples, CkptInterval selects the engine); build may be nil.
func DataFlowCoverage(ctx context.Context, scale float64, samples int, seed int64, opts inject.Options, build buildFn) ([]*inject.Report, error) {
	names := []string{"164.gzip", "183.equake"}
	type cfg struct {
		label string
		tech  dbt.Technique
		body  dbt.BodyTransform
	}
	cfgs := []cfg{
		{"none", nil, nil},
		{"RCF", &check.RCF{Style: dbt.UpdateCmov}, nil},
		{"RCF+DFC", &check.RCF{Style: dbt.UpdateCmov}, &check.DFC{}},
		{"RCF+DFC+cmp", &check.RCF{Style: dbt.UpdateCmov}, &check.DFC{SyncAtCmps: true}},
	}
	bf := buildOrDefault(build)
	var reports []*inject.Report
	for _, c := range cfgs {
		merged := &inject.Report{Technique: c.label, Program: "suite", ByCat: map[errmodel.Category]*inject.Agg{}}
		for _, n := range names {
			p, err := bf(n, scale)
			if err != nil {
				return nil, err
			}
			rep, err := inject.Execute(ctx, p, inject.Config{
				Technique: c.tech, Body: c.body, RegFaults: true,
				Samples: samples, Seed: seed, Options: opts,
				// Data faults can wreck the stack pointer and livelock;
				// a tight budget keeps hang detection cheap.
				MaxSteps: 4_000_000,
			})
			if err != nil {
				return nil, err
			}
			merged.Add(rep)
			merged.Elapsed += rep.Elapsed
		}
		reports = append(reports, merged)
	}
	return reports, nil
}

// FormatDataFlowCoverage renders the register-fault campaign comparison.
func FormatDataFlowCoverage(reports []*inject.Report) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Register-bit fault campaigns (data errors; the paper's future work)")
	fmt.Fprintf(&b, "%-14s %8s %8s %8s %8s %9s\n", "config", "detected", "benign", "SDC", "hang", "coverage")
	for _, r := range reports {
		t := &r.Totals
		fmt.Fprintf(&b, "%-14s %8d %8d %8d %8d %8.1f%%\n",
			r.Technique, t.Count[inject.OutDetectedSW]+t.Count[inject.OutDetectedHW],
			t.Count[inject.OutBenign], t.Count[inject.OutSDC], t.Count[inject.OutHang],
			t.Coverage()*100)
	}
	return b.String()
}
