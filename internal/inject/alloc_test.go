package inject

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/workloads"
)

// Allocation bounds of a warm native campaign (see
// TestWarmNativeCampaignAllocs): 60 allocations and 5 KiB measured, plus
// headroom. One memory image of the program (20,480 words, 80 KiB)
// exceeds the byte bound on its own, and so does a per-sample slab of
// results.
const (
	warmNativeMaxAllocs = 100
	warmNativeMaxBytes  = 8 << 10
)

// TestWarmNativeCampaignAllocs gates what a warm native session pays per
// campaign: once the warm state has frozen its engine, a 40-sample
// checkpoint campaign on one worker over a pre-recorded log allocates for
// its samples only, not a CFG, an engine table or a memory image sized to
// the program (the replayer comes from the pool the previous campaign
// released it to). Counts are the runtime's, so the bound holds on any
// host.
func TestWarmNativeCampaignAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
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
	w, err := Prepare(p, Config{}, AsStatic("CFCSS"))
	if err != nil {
		t.Fatal(err)
	}
	c := Config{Samples: 40, Seed: 1, Options: Options{CkptInterval: -1, Workers: 1}}
	if _, err := w.Record(ckpt.AutoInterval(c.CkptInterval, w.CleanSteps()), DefaultMaxSteps); err != nil {
		t.Fatal(err)
	}
	campaign := func() {
		if _, err := w.Run(context.Background(), c); err != nil {
			t.Fatal(err)
		}
	}
	// The second campaign must find the replayer the first released,
	// which the process-wide free list keeps on any P. Allocation counts
	// are process-wide too: one P and no collection keep other
	// goroutines' work out of them.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
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
