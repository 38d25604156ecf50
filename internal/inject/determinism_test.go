package inject

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/dbt"

	"repro/internal/check"
	"repro/internal/comp"
)

// reportKey strips the fields that legitimately vary between runs (wall
// clock, worker count) so reports can be compared for bit-identity.
func reportKey(r *Report) Report {
	k := *r
	k.Workers = 0
	k.Elapsed = 0
	// Engine telemetry: how tails were resolved differs between the
	// checkpoint and replay engines by design; the classified results may
	// not.
	k.Executed = 0
	k.ShortOffset = 0
	k.ShortLive = 0
	k.Rejoined = 0
	k.Compiled = comp.Stats{}
	return k
}

// Campaign results must be a pure function of (program, config, seed):
// sharding samples across any number of workers may change nothing — not
// the totals, not the per-category aggregates, not the per-sample records.
func TestCampaignWorkerCountInvariance(t *testing.T) {
	p := mustAssemble(t, workload)
	techs := map[string]dbt.Technique{
		"RCF":   &check.RCF{Style: dbt.UpdateCmov},
		"EdgCF": &check.EdgCF{Style: dbt.UpdateJcc},
	}
	for name, tech := range techs {
		for _, regFaults := range []bool{false, true} {
			base := Config{
				Technique:   tech,
				Samples:     200,
				Seed:        42,
				RegFaults:   regFaults,
				KeepRecords: true,
				MaxSteps:    10_000_000,
			}
			serialCfg := base
			serialCfg.Workers = 1
			serial, err := Execute(context.Background(), p, serialCfg)
			if err != nil {
				t.Fatalf("%s/reg=%v workers=1: %v", name, regFaults, err)
			}
			for _, w := range []int{2, 8} {
				cfg := base
				cfg.Workers = w
				rep, err := Execute(context.Background(), p, cfg)
				if err != nil {
					t.Fatalf("%s/reg=%v workers=%d: %v", name, regFaults, w, err)
				}
				if rep.Workers != w {
					t.Errorf("%s/reg=%v: report says %d workers, want %d",
						name, regFaults, rep.Workers, w)
				}
				got, want := reportKey(rep), reportKey(serial)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/reg=%v workers=%d: report differs from serial\n got: %+v\nwant: %+v",
						name, regFaults, w, got, want)
				}
			}
		}
	}
}

// Records come back sorted by sample index regardless of completion order.
func TestCampaignRecordsInSampleOrder(t *testing.T) {
	p := mustAssemble(t, workload)
	rep, err := Execute(context.Background(), p, Config{
		Technique:   &check.RCF{Style: dbt.UpdateCmov},
		Samples:     150,
		Seed:        7,
		KeepRecords: true,
		Options:     Options{Workers: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) == 0 {
		t.Fatal("no records kept")
	}
	for i := 1; i < len(rep.Records); i++ {
		if rep.Records[i-1].Sample >= rep.Records[i].Sample {
			t.Fatalf("records out of order at %d: sample %d then %d",
				i, rep.Records[i-1].Sample, rep.Records[i].Sample)
		}
	}
}

// The static (no-translator) campaigns make the same guarantee.
func TestStaticCampaignWorkerCountInvariance(t *testing.T) {
	p := mustAssemble(t, workload)
	ip, err := check.InstrumentStatic(p, check.StaticCFCSS)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Samples: 200, Seed: 42, KeepRecords: true}
	serialCfg := base
	serialCfg.Workers = 1
	serial, err := Execute(context.Background(), ip, serialCfg, AsStatic("CFCSS"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Workers = 8
	rep, err := Execute(context.Background(), ip, cfg, AsStatic("CFCSS"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reportKey(rep), reportKey(serial)) {
		t.Errorf("static campaign differs across worker counts\n got: %+v\nwant: %+v",
			reportKey(rep), reportKey(serial))
	}
}

// The per-sample PRNG must give every index an independent stream: distinct
// values across indexes, stable values for the same index.
func TestSampleRNG(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		rng := newSampleRNG(1, i)
		v := rng.Uint64()
		if seen[v] {
			t.Fatalf("index %d repeats an earlier first draw", i)
		}
		seen[v] = true

		again := newSampleRNG(1, i)
		if w := again.Uint64(); w != v {
			t.Fatalf("index %d not reproducible: %d then %d", i, v, w)
		}
	}
	// Different seeds decorrelate the same index.
	a, b := newSampleRNG(1, 5), newSampleRNG(2, 5)
	if a.Uint64() == b.Uint64() {
		t.Error("seed change did not alter the stream")
	}
	// Bounded draws stay in range.
	rng := newSampleRNG(3, 0)
	for i := 0; i < 1000; i++ {
		if v := rng.Uint64n(7); v >= 7 {
			t.Fatalf("Uint64n(7) = %d", v)
		}
		if v := rng.Intn(5); v < 0 || v >= 5 {
			t.Fatalf("Intn(5) = %d", v)
		}
	}
}
