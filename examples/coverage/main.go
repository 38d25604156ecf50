// Coverage: run randomized soft-error injection campaigns against one
// benchmark under every protection configuration — no protection, the
// prior techniques (ECF as translator instrumentation, CFCSS and ECCA as
// static rewriters) and the paper's EdgCF and RCF — and compare how many
// errors each detects per branch-error category.
//
// This is the experiment the paper argues analytically in Section 3 and
// defers to future work; expect RCF to leave no silent corruptions while
// the baselines each miss their documented categories.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/inject"

	"repro/internal/check"
)

func main() {
	const (
		workload = "181.mcf"
		scale    = 0.08
		samples  = 400
		seed     = 7
	)
	p, err := core.Workload(workload, scale)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("injection campaigns on %s (%d samples each)\n\n", workload, samples)

	// Every row of the technique table. CFCSS and ECCA run natively as
	// static rewriters: translation on demand would invalidate their
	// static signature assignment.
	for _, t := range check.Techniques {
		rep, err := core.InjectCtx(context.Background(), p, core.Config{Technique: t.Name, Style: "CMOVcc"}, samples, seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(inject.FormatReport(rep))
		fmt.Println()
	}
}
