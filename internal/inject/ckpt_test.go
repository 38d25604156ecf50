package inject

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/check"
	"repro/internal/dbt"
)

// formatKey renders a report with the legitimately varying fields (wall
// clock, worker count) normalized, so the formatted text can be compared
// byte for byte.
func formatKey(r *Report) string {
	k := reportKey(r)
	return FormatReport(&k)
}

// The checkpoint engine must produce reports byte-identical to full
// replay — same aggregates, same per-sample records, same translator
// stats — for every worker count, across fault models.
func TestCkptCampaignMatchesReplay(t *testing.T) {
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
				MaxSteps:    2_000_000,
				Options:     Options{Workers: 1},
			}
			replay, err := Execute(context.Background(), p, base)
			if err != nil {
				t.Fatalf("%s/reg=%v replay: %v", name, regFaults, err)
			}
			for _, w := range []int{1, 4} {
				// A tight explicit interval exercises many restore points;
				// the auto interval exercises the default path.
				for _, iv := range []int64{-1, 64} {
					cfg := base
					cfg.Workers = w
					cfg.CkptInterval = iv
					rep, err := Execute(context.Background(), p, cfg)
					if err != nil {
						t.Fatalf("%s/reg=%v ckpt(iv=%d) workers=%d: %v", name, regFaults, iv, w, err)
					}
					got, want := reportKey(rep), reportKey(replay)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s/reg=%v ckpt(iv=%d) workers=%d: report differs from replay\n got: %+v\nwant: %+v",
							name, regFaults, iv, w, got, want)
					}
					if fg, fw := formatKey(rep), formatKey(replay); fg != fw {
						t.Errorf("%s/reg=%v ckpt(iv=%d) workers=%d: formatted report differs\n got:\n%s\nwant:\n%s",
							name, regFaults, iv, w, fg, fw)
					}
				}
			}
		}
	}
}

// The static (no-translator) engine makes the same guarantee.
func TestStaticCkptCampaignMatchesReplay(t *testing.T) {
	p := mustAssemble(t, workload)
	ip, err := check.InstrumentStatic(p, check.StaticCFCSS)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Samples: 200, Seed: 42, KeepRecords: true, Options: Options{Workers: 1}}
	replay, err := Execute(context.Background(), ip, base, AsStatic("CFCSS"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4} {
		for _, iv := range []int64{-1, 64} {
			cfg := base
			cfg.Workers = w
			cfg.CkptInterval = iv
			rep, err := Execute(context.Background(), ip, cfg, AsStatic("CFCSS"))
			if err != nil {
				t.Fatalf("ckpt(iv=%d) workers=%d: %v", iv, w, err)
			}
			if !reflect.DeepEqual(reportKey(rep), reportKey(replay)) {
				t.Errorf("ckpt(iv=%d) workers=%d: static report differs from replay\n got: %+v\nwant: %+v",
					iv, w, reportKey(rep), reportKey(replay))
			}
			if fg, fw := formatKey(rep), formatKey(replay); fg != fw {
				t.Errorf("ckpt(iv=%d) workers=%d: formatted static report differs", iv, w)
			}
		}
	}
}

// The checkpoint engine keeps the worker-count invariance guarantee on
// its own too (site-sorted static sharding instead of dynamic draining).
func TestCkptCampaignWorkerCountInvariance(t *testing.T) {
	p := mustAssemble(t, workload)
	base := Config{
		Technique:   &check.RCF{Style: dbt.UpdateCmov},
		Samples:     200,
		Seed:        7,
		KeepRecords: true,
		MaxSteps:    2_000_000,
		Options:     Options{Workers: 1, CkptInterval: -1},
	}
	serial, err := Execute(context.Background(), p, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		cfg := base
		cfg.Workers = w
		rep, err := Execute(context.Background(), p, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(reportKey(rep), reportKey(serial)) {
			t.Errorf("workers=%d: report differs from serial", w)
		}
	}
}
