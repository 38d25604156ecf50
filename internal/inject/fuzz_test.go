package inject

import (
	"context"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/check"
	"repro/internal/dbt"
)

// fuzzMergeTotal is the sample count of FuzzMergeReports's campaign, and
// fuzzMergeMaxShards caps the shards one input splits it into.
const (
	fuzzMergeTotal     = 60
	fuzzMergeMaxShards = 8
)

// FuzzMergeReports checks MergeReports under arbitrary partitions: the
// input picks the target (dynamic RCF or static CFCSS), the engine
// (replay or checkpoint), a contiguous partition of a 60-sample campaign
// (each byte of sizes is one shard's size less one, mod the samples left;
// the last shard takes the rest) and the order the shards reach
// MergeReports in (shuffle seeds a permutation). The merged report's
// FormatNormalized text, compiled-backend work and Records must equal the
// unsharded run's, and its engine telemetry must account for every
// sample. The seeds are
// TestMergeReportsPartition's partitions. Plain `go test` replays them;
// `go test -fuzz FuzzMergeReports` searches.
func FuzzMergeReports(f *testing.F) {
	p := mustAssemble(f, workload)
	ip, err := check.InstrumentStatic(p, check.StaticCFCSS)
	if err != nil {
		f.Fatal(err)
	}
	tech := &check.RCF{Style: dbt.UpdateCmov}
	run := func(t *testing.T, static bool, cfg Config) *Report {
		t.Helper()
		var rep *Report
		var err error
		if static {
			rep, err = Execute(context.Background(), ip, cfg, AsStatic("CFCSS"))
		} else {
			cfg.Technique = tech
			rep, err = Execute(context.Background(), p, cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	for _, sizes := range [][]byte{{59}, {29, 29}, {16, 19, 22}, {0, 58}} {
		for _, static := range []bool{false, true} {
			for _, ckpt := range []bool{false, true} {
				f.Add(static, ckpt, sizes, uint64(len(sizes)))
			}
		}
	}
	// The unsharded run of each target and engine, computed once.
	full := map[[2]bool]*Report{}
	f.Fuzz(func(t *testing.T, static, ckpt bool, sizes []byte, shuffle uint64) {
		base := Config{
			Samples:     fuzzMergeTotal,
			Seed:        42,
			KeepRecords: true,
			MaxSteps:    2_000_000,
			Options:     Options{Workers: 2},
		}
		if ckpt {
			base.CkptInterval = -1
		}
		want := full[[2]bool{static, ckpt}]
		if want == nil {
			want = run(t, static, base)
			full[[2]bool{static, ckpt}] = want
		}
		var parts []*Report
		for off := 0; off < fuzzMergeTotal; {
			n := fuzzMergeTotal - off
			if k := len(parts); k < len(sizes) && k < fuzzMergeMaxShards-1 {
				n = 1 + int(sizes[k])%n
			}
			cfg := base
			cfg.SampleOffset, cfg.Samples = off, n
			parts = append(parts, run(t, static, cfg))
			off += n
		}
		rand.New(rand.NewPCG(shuffle, 0)).Shuffle(len(parts), func(i, j int) {
			parts[i], parts[j] = parts[j], parts[i]
		})
		merged, err := MergeReports(parts)
		if err != nil {
			t.Fatalf("%d shards: %v", len(parts), err)
		}
		if got, wantText := FormatNormalized(merged), FormatNormalized(want); got != wantText {
			t.Errorf("%d shards: merged normalized report differs\n got:\n%s\nwant:\n%s", len(parts), got, wantText)
		}
		if merged.Compiled != want.Compiled {
			t.Errorf("%d shards: merged compiled-backend work %+v, unsharded %+v", len(parts), merged.Compiled, want.Compiled)
		}
		if !reflect.DeepEqual(merged.Records, want.Records) {
			t.Errorf("%d shards: merged records differ from the unsharded run", len(parts))
		}
		if merged.Executed+merged.ShortOffset+merged.ShortLive != merged.Samples {
			t.Errorf("%d shards: engine telemetry %d+%d+%d != %d samples", len(parts),
				merged.Executed, merged.ShortOffset, merged.ShortLive, merged.Samples)
		}
	})
}
