package session

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/inject"
)

// Checkpoint replayers are pooled process-wide (ckpt.NewReplayer), so
// campaigns running at once on one session, or on sessions whose logs
// differ in memory size, hand replayers to one another. Every report, and
// the engine telemetry with it, must equal the same campaign run alone.
func TestPooledReplayersMatchSequential(t *testing.T) {
	gzip := Key{Workload: "164.gzip", Scale: 0.05, Technique: "RCF", Style: "Jcc", Policy: "ALLBB"}
	swim := Key{Workload: "171.swim", Scale: 0.05, Technique: "EdgCF", Style: "CMOVcc", Policy: "RET-BE"}
	reg := NewRegistry(Config{})
	sessions := map[Key]*Session{gzip: mustSession(t, reg, gzip), swim: mustSession(t, reg, swim)}
	if a, b := sessions[gzip].Log().MemWords, sessions[swim].Log().MemWords; a == b {
		t.Fatalf("both logs hold %d memory words; the test needs two sizes", a)
	}
	seeds := []int64{1, 2, 3, 4}
	run := func(k Key, seed int64) string {
		rep, err := sessions[k].Run(context.Background(), Spec{Samples: 200, Seed: seed}, core.Options{Workers: 2, CkptInterval: -1})
		if err != nil {
			t.Error(err)
			return ""
		}
		return fmt.Sprintf("%s\nexecuted %d, offset %d, flag %d, rejoined %d\n",
			inject.FormatNormalized(rep), rep.Executed, rep.ShortOffset, rep.ShortLive, rep.Rejoined)
	}
	want := map[Key]map[int64]string{gzip: {}, swim: {}}
	for k := range want {
		for _, seed := range seeds {
			want[k][seed] = run(k, seed)
		}
	}
	check := func(tag string, k Key, seed int64, got string) {
		if got != want[k][seed] {
			t.Errorf("%s: %s seed %d differs from its sequential run\n got: %s\nwant: %s", tag, k.Workload, seed, got, want[k][seed])
		}
	}
	// Alternating sizes, in both orders: a replayer sized for one log is
	// grown or shrunk for the other.
	for _, order := range [][]Key{{gzip, swim}, {swim, gzip}} {
		for _, seed := range seeds {
			for _, k := range order {
				check("alternating "+order[0].Workload+" first", k, seed, run(k, seed))
			}
		}
	}
	// At once, on one session and across both.
	var wg sync.WaitGroup
	for _, keys := range [][]Key{{gzip, gzip, gzip}, {gzip, swim}, {swim, gzip, swim}} {
		for i, k := range keys {
			for _, seed := range seeds {
				wg.Add(1)
				go func(k Key, seed int64) {
					defer wg.Done()
					check(fmt.Sprintf("concurrent %d of %d", i, len(keys)), k, seed, run(k, seed))
				}(k, seed)
			}
		}
		wg.Wait()
	}
}
