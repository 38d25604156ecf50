package inject

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/workloads"
)

// Allocation bounds of a warm native campaign (see TestWarmNativeCampaignAllocs).
const (
	warmNativeMaxAllocs = 1000
	warmNativeMaxBytes  = 512 << 10
)

// TestWarmNativeCampaignAllocs gates what a warm native session pays per
// campaign: once the warm state has frozen its engine, a 40-sample
// checkpoint campaign on one worker over a pre-recorded log allocates for
// its samples only, not a CFG, liveness or engine table sized to the
// program. Counts are the runtime's, so the bound holds on any host.
func TestWarmNativeCampaignAllocs(t *testing.T) {
	prof, err := workloads.ByName("197.parser")
	if err != nil {
		t.Fatal(err)
	}
	base, err := prof.Build(0.05)
	if err != nil {
		t.Fatal(err)
	}
	p, err := check.InstrumentStatic(base, check.StaticCFCSS)
	if err != nil {
		t.Fatal(err)
	}
	n, clean, err := WarmNative(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	c := Config{Samples: 40, Seed: 1, Options: Options{CkptInterval: -1, Workers: 1}}
	log, err := n.Record(ckpt.AutoInterval(c.CkptInterval, clean.Steps), DefaultMaxSteps)
	if err != nil {
		t.Fatal(err)
	}
	campaign := func() {
		if _, err := Execute(context.Background(), p, c, AsStatic("CFCSS"), WithNative(n), WithRecording(log)); err != nil {
			t.Fatal(err)
		}
	}
	campaign()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	campaign()
	runtime.ReadMemStats(&after)
	allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("warm campaign: %d allocations, %d KiB", allocs, bytes>>10)
	if allocs > warmNativeMaxAllocs || bytes > warmNativeMaxBytes {
		t.Errorf("warm campaign made %d allocations (%d KiB), want <= %d and <= %d KiB",
			allocs, bytes>>10, warmNativeMaxAllocs, warmNativeMaxBytes>>10)
	}
}
