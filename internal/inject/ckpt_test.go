package inject

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/check"
	"repro/internal/dbt"
	"repro/internal/obs"
	"repro/internal/workloads"
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

// The checkpoint engine drains its site-sorted samples through one shared
// cursor, so which worker resolves which sample depends on scheduling.
// Every sample is resolved on its own from its restore point, so neither
// the report, nor the engine telemetry, nor the metrics snapshot may
// depend on the worker count: an integer program under RCF/Jcc, a
// floating-point one under EdgCF/CMOVcc and the static CFCSS baseline, at
// 1, 2 and 8 workers. The snapshot pins the rejoin and short-circuit
// counters published from the report as well as the restores, settled
// traps and restored/replayed-steps histograms the workers' collectors
// observe.
func TestCkptCampaignWorkerCountInvariance(t *testing.T) {
	shapes := []struct {
		workload string
		tech     dbt.Technique // nil: static CFCSS
		policy   dbt.Policy
	}{
		{"164.gzip", &check.RCF{Style: dbt.UpdateJcc}, dbt.PolicyAllBB},
		{"171.swim", &check.EdgCF{Style: dbt.UpdateCmov}, dbt.PolicyRetBE},
		{"181.mcf", nil, dbt.PolicyAllBB},
	}
	// telemetry is what the checkpoint engine did, which reportKey strips.
	type telemetry struct {
		executed, shortOffset, shortLive, rejoined int
		metrics                                    string
	}
	for _, s := range shapes {
		prof, err := workloads.ByName(s.workload)
		if err != nil {
			t.Fatal(err)
		}
		p, err := prof.Build(0.05)
		if err != nil {
			t.Fatal(err)
		}
		var opts []ExecOption
		if s.tech == nil {
			if p, err = check.InstrumentStatic(p, check.StaticCFCSS); err != nil {
				t.Fatal(err)
			}
			opts = append(opts, AsStatic("CFCSS"))
		}
		var want Report
		var wantTel telemetry
		for _, w := range []int{1, 2, 8} {
			reg := obs.NewRegistry()
			rep, err := Execute(context.Background(), p, Config{
				Technique:   s.tech,
				Policy:      s.policy,
				Samples:     300,
				Seed:        3,
				KeepRecords: true,
				Options:     Options{Workers: w, CkptInterval: -1, Metrics: reg},
			}, opts...)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", s.workload, w, err)
			}
			ms := reg.Snapshot().StripTimings()
			// Every sample is restored once unless it was settled at its
			// firing: a No Error short-circuit or a settled trap.
			settled := int(ms.Counters[seriesName("ckpt_settled_traps_total", rep.Technique)])
			for name, want := range map[string]int{
				"ckpt_restores_total":      rep.Samples - rep.ShortOffset - rep.ShortLive - settled,
				"ckpt_rejoined_total":      rep.Rejoined,
				"ckpt_shortcircuits_total": rep.ShortOffset + rep.ShortLive,
			} {
				if got := ms.Counters[seriesName(name, rep.Technique)]; got != uint64(want) {
					t.Errorf("%s workers=%d: %s = %d, want %d", s.workload, w, name, got, want)
				}
			}
			var snap bytes.Buffer
			if err := ms.WriteJSON(&snap); err != nil {
				t.Fatal(err)
			}
			tel := telemetry{rep.Executed, rep.ShortOffset, rep.ShortLive, rep.Rejoined, snap.String()}
			if w == 1 {
				want, wantTel = reportKey(rep), tel
				if tel.executed == 0 || tel.shortOffset+tel.shortLive == 0 {
					t.Fatalf("%s: engine telemetry %+v exercises no short-circuit or no tail", s.workload, tel)
				}
				continue
			}
			if got := reportKey(rep); !reflect.DeepEqual(got, want) {
				t.Errorf("%s workers=%d: report differs from serial\n got: %+v\nwant: %+v", s.workload, w, got, want)
			}
			if tel != wantTel {
				t.Errorf("%s workers=%d: engine telemetry or metrics differ from serial\n got: %+v\nwant: %+v",
					s.workload, w, tel, wantTel)
			}
		}
	}
}
