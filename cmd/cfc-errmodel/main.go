// Command cfc-errmodel regenerates the paper's Figure 2 (branch-error
// probability tables for SPEC-Int and SPEC-Fp) and Figure 3 (probabilities
// normalized over the silent-data-corruption categories A-E).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/errmodel"
	"repro/internal/obs"
)

func main() {
	var (
		scale    = flag.Float64("scale", 1.0, "workload dynamic scale")
		workload = flag.String("workload", "", "analyze a single workload instead of both suites")
	)
	var app cli.App
	app.BindFlags(flag.CommandLine, cli.Workers)
	flag.Parse()
	fatalIf(app.Open())

	if *workload != "" {
		p, err := core.Workload(*workload, *scale)
		if err != nil {
			fatal(err)
		}
		t, err := core.AnalyzeErrors(p, bench.DefaultMaxSteps)
		if err != nil {
			fatal(err)
		}
		fmt.Print(errmodel.FormatFigure2("Branch-error probabilities: "+*workload, t))
		fmt.Println()
		fmt.Print(errmodel.FormatFigure3("Normalized: "+*workload, t))
		publishTable(app.Registry(), *workload, t)
		fatalIf(app.Close())
		return
	}

	intTab, fpTab, err := bench.Figure2(*scale, app.Workers)
	if err != nil {
		fatal(err)
	}
	fmt.Print(errmodel.FormatFigure2("Figure 2 — SPEC-Int 2000", intTab))
	fmt.Println()
	fmt.Print(errmodel.FormatFigure2("Figure 2 — SPEC-Fp 2000", fpTab))
	fmt.Println()
	fmt.Print(errmodel.FormatFigure3("Figure 3 — SPEC-Int 2000", intTab))
	fmt.Println()
	fmt.Print(errmodel.FormatFigure3("Figure 3 — SPEC-Fp 2000", fpTab))
	publishTable(app.Registry(), "spec-int", intTab)
	publishTable(app.Registry(), "spec-fp", fpTab)
	fatalIf(app.Close())
}

// publishTable exports a Figure 2 table's fault-site counts per category,
// plus the analyzed-branch totals, labeled by suite (or workload name).
func publishTable(reg *obs.Registry, suite string, t *errmodel.Table) {
	if reg == nil {
		return
	}
	for c := errmodel.CatA; c < errmodel.NumCategories; c++ {
		var n uint64
		for d := 0; d < 2; d++ {
			for k := 0; k < 2; k++ {
				n += t.Counts[c][d][k]
			}
		}
		reg.Counter(fmt.Sprintf("errmodel_fault_sites_total{suite=%q,category=%q}",
			suite, c.String())).Add(n)
	}
	reg.Counter(fmt.Sprintf("errmodel_branches_total{suite=%q}", suite)).Add(t.Branches)
	reg.Counter(fmt.Sprintf("errmodel_indirect_skipped_total{suite=%q}", suite)).Add(t.IndirectSkipped)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cfc-errmodel:", err)
	os.Exit(1)
}

func fatalIf(err error) {
	if err != nil {
		fatal(err)
	}
}
