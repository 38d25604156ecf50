// Policies: quantify the trade the paper's Section 6 makes explicit —
// checking the signature less often is faster, but errors are reported
// later (and, under END, looping errors may never be reported at all).
// For one benchmark, measure slowdown and mean detection latency for the
// four checking policies.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/inject"
)

func main() {
	const (
		workload = "197.parser"
		scale    = 0.1
		samples  = 300
	)
	p, err := core.Workload(workload, scale)
	if err != nil {
		log.Fatal(err)
	}
	base, err := core.RunDBT(p, core.Config{}, 2_000_000_000)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("RCF on %s: checking policy trade-off\n", workload)
	fmt.Printf("%-8s %10s %12s %14s %8s\n", "policy", "slowdown", "coverage", "mean-latency", "hangs")
	for _, pol := range []string{"ALLBB", "RET-BE", "RET", "END"} {
		cfg := core.Config{Technique: "RCF", Style: "Jcc", Policy: pol}
		res, err := core.RunDBT(p, cfg, 2_000_000_000)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := core.InjectCtx(context.Background(), p, cfg, samples, 13)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %9.2fx %11.1f%% %9.0f instr %8d\n",
			pol,
			float64(res.Cycles)/float64(base.Cycles),
			rep.Totals.Coverage()*100,
			rep.MeanLatency(),
			rep.Totals.Count[inject.OutHang],
		)
	}
	fmt.Println("\nNote: signature updates run in every block under every policy; only the")
	fmt.Println("checks move. Once wrong, the signature stays wrong, so sparse checks still")
	fmt.Println("catch the error eventually — unless it loops forever (the END policy's gap).")
}
