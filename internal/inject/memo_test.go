package inject

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/obs"
	"repro/internal/workloads"
)

// TestCkptTailMemoMatchesReplay runs the fleet benchmark's native bulk
// shape, 181.mcf under CFCSS, whose faults often restart the program
// through an unwritten stack word. At 1, 2 and 4 workers, the checkpoint
// engine's tail memo must hit and run shadow tails, and its reports must
// equal the replay engine's. A coarse interval puts a share of the
// samples on point 0, which starts on the watched entry.
func TestCkptTailMemoMatchesReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 800 samples of 181.mcf")
	}
	prof, err := workloads.ByName("181.mcf")
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
	c := Config{Samples: 800, Seed: 7, KeepRecords: true, Options: Options{Workers: 2}}
	replay, err := Execute(context.Background(), p, c, AsStatic("CFCSS"), WithNative(n))
	if err != nil {
		t.Fatal(err)
	}
	for _, iv := range []int64{-1, int64(clean.Steps / 4)} {
		log, err := n.Record(ckpt.AutoInterval(iv, clean.Steps), DefaultMaxSteps)
		if err != nil {
			t.Fatal(err)
		}
		atZero := 0
		for i := 0; i < c.Samples; i++ {
			if sitePoint(log, deriveFault(&c, i, clean.DirectBranches, clean.Steps)) == 0 {
				atZero++
			}
		}
		if iv > 0 && atZero == 0 {
			t.Fatalf("interval %d: no sample restores at point 0", iv)
		}
		for _, w := range []int{1, 2, 4} {
			cfg := c
			cfg.Workers, cfg.CkptInterval, cfg.Metrics = w, iv, obs.NewRegistry()
			rep, err := Execute(context.Background(), p, cfg, AsStatic("CFCSS"), WithNative(n), WithRecording(log))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(reportKey(rep), reportKey(replay)) {
				t.Errorf("interval %d, %d workers: report differs from replay", iv, w)
			}
			snap := cfg.Metrics.Snapshot()
			hits := snap.Counters[`ckpt_memo_hits_total{technique="CFCSS"}`]
			shadows := snap.Counters[`ckpt_shadow_tails_total{technique="CFCSS"}`]
			t.Logf("interval %d, %d workers: %d at point 0, %d memo hits, %d shadow tails, %d rejoined",
				iv, w, atZero, hits, shadows, rep.Rejoined)
			if hits == 0 || shadows == 0 || shadows > uint64(w*memoShadows) || int(hits) > rep.Rejoined {
				t.Errorf("interval %d, %d workers: %d memo hits, %d shadow tails, %d rejoined",
					iv, w, hits, shadows, rep.Rejoined)
			}
		}
	}
}
