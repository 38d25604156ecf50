package inject

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/dbt"

	"repro/internal/check"
)

// BenchmarkCampaignWorkers measures campaign throughput as the worker pool
// grows. On a multi-core machine the 4-worker run should approach a 4x
// speedup over serial; on a single core all three take the same time (the
// pool adds no overhead worth measuring against millions of interpreted
// steps per sample).
func BenchmarkCampaignWorkers(b *testing.B) {
	p, err := asm.Assemble("bench", workload)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := Execute(context.Background(), p, Config{
					Technique: &check.RCF{Style: dbt.UpdateCmov},
					Samples:   1000,
					Seed:      1,
					Options:   Options{Workers: workers},
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rep.Throughput(), "runs/s")
			}
		})
	}
}
