// Command cfc-bench regenerates the paper's performance figures over the
// synthetic SPEC2000 suite:
//
//	-fig 12     per-benchmark slowdown of RCF/EdgCF/ECF (Figure 12)
//	-fig 14     Jcc vs CMOVcc update styles (Figure 14)
//	-fig 15     RCF under the four checking policies (Figure 15)
//	-fig dbt    uninstrumented translator overhead vs native (Section 6 text)
//	-fig ablate  design-choice ablations (chaining, traces, xor-vs-lea, DFC)
//	-fig coverage fault-injection coverage matrix
//	-fig dfc     register-fault coverage of data-flow checking (future work)
//	-fig latency policy trade-off: slowdown vs coverage vs report latency
//	-fig all     dbt, 12, 14, 15, ablate, dfc and latency
//
// It runs the bench suite that POST /v1/bench serves and prints each
// figure's table. -workers fans the per-benchmark runs (and campaign
// samples) across a goroutine pool; results are identical for every
// worker count.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/cli"
)

// allFigures is what -fig all runs: every figure but the coverage
// matrix, which cfc-inject -matrix prints with its own knobs.
var allFigures = []string{"dbt", "12", "14", "15", "ablate", "dfc", "latency"}

func main() {
	var (
		fig   = flag.String("fig", "all", "which figure: "+strings.Join(bench.FigureNames(), "|")+"|all")
		scale = flag.Float64("scale", 1.0, "workload dynamic scale")
	)
	app := cli.App{CkptInterval: -1}
	app.BindFlags(flag.CommandLine, cli.Workers|cli.Campaign)
	flag.Parse()

	figs := []string{*fig}
	if *fig == "all" {
		figs = allFigures
	}
	if err := bench.CheckFigures(figs); err != nil {
		fmt.Fprintln(os.Stderr, "cfc-bench:", err)
		os.Exit(2)
	}
	fatalIf(app.Open())
	// The campaign figures (coverage, dfc, latency) run 300 samples from
	// seed 1.
	err := bench.RunSuite(context.Background(), bench.SuiteConfig{
		Scale: *scale, Samples: 300, Seed: 1, Figures: figs, Options: app.Options(),
	}, func(f bench.SuiteFrame) error {
		if f.Kind == "table" {
			fmt.Println(f.Text)
		}
		return nil
	})
	fatalIf(err)
	fatalIf(app.Close())
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cfc-bench:", err)
		os.Exit(1)
	}
}
