// Command cfc-bench regenerates the paper's performance figures over the
// synthetic SPEC2000 suite:
//
//	-fig 12     per-benchmark slowdown of RCF/EdgCF/ECF (Figure 12)
//	-fig 14     Jcc vs CMOVcc update styles (Figure 14)
//	-fig 15     RCF under the four checking policies (Figure 15)
//	-fig dbt    uninstrumented translator overhead vs native (Section 6 text)
//	-fig ablate  design-choice ablations (chaining, traces, xor-vs-lea, DFC)
//	-fig dfc     register-fault coverage of data-flow checking (future work)
//	-fig latency policy trade-off: slowdown vs coverage vs report latency
//	-fig all     everything
//
// -workers fans the per-benchmark runs (and campaign samples) across a
// goroutine pool; results are identical for every worker count.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/cli"
)

func main() {
	var (
		fig   = flag.String("fig", "all", "which figure: 12|14|15|dbt|all")
		scale = flag.Float64("scale", 1.0, "workload dynamic scale")
	)
	app := cli.App{CkptInterval: -1}
	app.BindFlags(flag.CommandLine)
	flag.Parse()
	fatalIf(app.Open())
	reg := app.Registry()
	workers, ckptIv := &app.Workers, &app.CkptInterval

	run := func(name string) {
		switch name {
		case "12":
			t, err := bench.Figure12(*scale, *workers)
			fatalIf(err)
			fmt.Print(bench.FormatSlowdownTable(t))
			bench.PublishSlowdownTable(reg, "12", t)
		case "14":
			t, err := bench.Figure14(*scale, *workers)
			fatalIf(err)
			fmt.Print(bench.FormatFigure14(t))
			bench.PublishFigure14(reg, t)
		case "15":
			t, err := bench.Figure15(*scale, *workers)
			fatalIf(err)
			fmt.Print(bench.FormatSlowdownTable(t))
			bench.PublishSlowdownTable(reg, "15", t)
		case "dbt":
			rows, avg, err := bench.DBTBaseline(*scale, *workers)
			fatalIf(err)
			fmt.Print(bench.FormatBaseline(rows, avg))
			bench.PublishBaseline(reg, rows, avg)
		case "ablate":
			rows, err := bench.Ablations(*scale, *workers)
			fatalIf(err)
			fmt.Print(bench.FormatAblations(rows))
			bench.PublishAblations(reg, rows)
		case "dfc":
			reports, err := bench.DataFlowCoverage(minF(*scale, 0.1), 300, 1, *workers, *ckptIv)
			fatalIf(err)
			fmt.Print(bench.FormatDataFlowCoverage(reports))
			bench.PublishCoverage(reg, "dfc", reports)
		case "latency":
			rows, err := bench.PolicyLatency(minF(*scale, 0.3), 300, 1, *workers, *ckptIv)
			fatalIf(err)
			fmt.Print(bench.FormatPolicyLatency(rows))
			bench.PublishPolicyLatency(reg, rows)
		default:
			fmt.Fprintf(os.Stderr, "cfc-bench: unknown figure %q\n", name)
			os.Exit(2)
		}
		fmt.Println()
	}

	if *fig == "all" {
		for _, f := range []string{"dbt", "12", "14", "15", "ablate", "dfc", "latency"} {
			run(f)
		}
		fatalIf(app.Close())
		return
	}
	run(*fig)
	fatalIf(app.Close())
}

// minF caps the campaign scale: fault injection runs the program once per
// sample, so full-scale campaigns would take minutes for no extra insight.
func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cfc-bench:", err)
		os.Exit(1)
	}
}
