package inject_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/dbt"
	"repro/internal/inject"
	"repro/internal/obs"
	"repro/internal/workloads"
)

// The checkpoint engine settles two kinds of branch fault at their firing
// from the log's site table, with no restore: No Error faults and offset
// flips that jump out of the code. Both must classify exactly as the
// replay engine's full runs do, on the work gate's shapes and on an
// END-policy shape, over three seeds; and both kinds must occur.
func TestSettledSamplesMatchReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("runs thirty-six 600-sample campaigns")
	}
	shapes := append(workShapes[:len(workShapes):len(workShapes)],
		workShape{"164.gzip EdgCF/Jcc/END", "164.gzip", "EdgCF", dbt.UpdateJcc, dbt.PolicyEnd, 0})
	var shorts, traps uint64
	for _, s := range shapes {
		p, cfg, opts := s.campaign(t)
		cfg.Samples, cfg.KeepRecords = 600, true
		for _, seed := range []int64{1, 7, 99} {
			cfg.Seed = seed
			run := func(interval int64) (*inject.Report, *obs.Registry) {
				c := cfg
				c.CkptInterval, c.Metrics = interval, obs.NewRegistry()
				rep, err := inject.Execute(context.Background(), p, c, opts...)
				if err != nil {
					t.Fatalf("%s seed %d interval %d: %v", s.name, seed, interval, err)
				}
				return rep, c.Metrics
			}
			want, _ := run(0)
			got, reg := run(-1)
			if g, w := inject.FormatNormalized(got), inject.FormatNormalized(want); g != w {
				t.Errorf("%s seed %d: checkpoint report differs from replay\n got:\n%s\nwant:\n%s", s.name, seed, g, w)
			}
			if !reflect.DeepEqual(got.Records, want.Records) {
				t.Errorf("%s seed %d: checkpoint records differ from replay", s.name, seed)
			}
			shorts += uint64(got.ShortOffset + got.ShortLive)
			traps += reg.Snapshot().Counters[`ckpt_settled_traps_total{technique="`+got.Technique+`"}`]
		}
	}
	t.Logf("settled %d No Error samples and %d traps", shorts, traps)
	if shorts == 0 || traps == 0 {
		t.Errorf("settled %d No Error samples and %d traps, want both", shorts, traps)
	}
}

// tableConfigs are the fleet benchmark's bulk and interactive
// configurations, at its scale 0.05.
var tableConfigs = []struct {
	workload, technique string
	style               dbt.UpdateStyle
	policy              dbt.Policy
}{
	{"164.gzip", "RCF", dbt.UpdateJcc, dbt.PolicyAllBB},
	{"171.swim", "EdgCF", dbt.UpdateCmov, dbt.PolicyRetBE},
	{"181.mcf", "CFCSS", 0, dbt.PolicyAllBB},
	{"164.gzip", "RCF", dbt.UpdateCmov, dbt.PolicyAllBB},
	{"164.gzip", "EdgCF", dbt.UpdateJcc, dbt.PolicyEnd},
	{"176.gcc", "EdgCF", dbt.UpdateJcc, dbt.PolicyRet},
	{"176.gcc", "ECF", dbt.UpdateCmov, dbt.PolicyEnd},
	{"197.parser", "RCF", dbt.UpdateJcc, dbt.PolicyRetBE},
	{"197.parser", "CFCSS", 0, dbt.PolicyAllBB},
	{"172.mgrid", "ECF", dbt.UpdateJcc, dbt.PolicyAllBB},
	{"172.mgrid", "RCF", dbt.UpdateCmov, dbt.PolicyRet},
	{"179.art", "EdgCF", dbt.UpdateCmov, dbt.PolicyAllBB},
	{"179.art", "ECF", dbt.UpdateJcc, dbt.PolicyRetBE},
	{"301.apsi", "RCF", dbt.UpdateJcc, dbt.PolicyEnd},
	{"301.apsi", "EdgCF", dbt.UpdateJcc, dbt.PolicyRetBE},
}

// The site table costs at most 4 bytes per dynamic branch, resident and
// encoded, over the fleet benchmark's configurations; the resident
// figure counts each point's site offset too. Each of those logs must
// also be one the campaign settles from: non-structural, untruncated,
// and recorded over the code the samples start from.
func TestSiteTableBytesPerBranch(t *testing.T) {
	if testing.Short() {
		t.Skip("records fifteen reference runs")
	}
	var encoded, resident, branches uint64
	for _, c := range tableConfigs {
		prof, err := workloads.ByName(c.workload)
		if err != nil {
			t.Fatal(err)
		}
		p, err := prof.Build(0.05)
		if err != nil {
			t.Fatal(err)
		}
		cfg := inject.Config{Policy: c.policy}
		var log *ckpt.Log
		var codeLen int
		if c.technique == "CFCSS" {
			if p, err = check.InstrumentStatic(p, check.StaticCFCSS); err != nil {
				t.Fatal(err)
			}
			w, err := inject.Prepare(p, cfg, inject.AsStatic(c.technique))
			if err != nil {
				t.Fatal(err)
			}
			log, err = w.Record(ckpt.AutoInterval(-1, w.CleanSteps()), inject.DefaultMaxSteps)
			if err != nil {
				t.Fatal(err)
			}
			codeLen = len(p.Code)
		} else {
			if cfg.Technique, err = check.New(c.technique, c.style); err != nil {
				t.Fatal(err)
			}
			snap, clean, err := inject.Warm(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			log, err = ckpt.Record(snap, ckpt.AutoInterval(-1, clean.Steps), inject.DefaultMaxSteps)
			if err != nil {
				t.Fatal(err)
			}
			codeLen = len(snap.Code())
		}
		if log.FinalPrefix.Structural() || log.Truncated || int(log.CodeLen) != codeLen {
			t.Errorf("%s %s/%v/%v: structural %v, truncated %v, code length %d of %d: campaigns cannot settle from its site table",
				c.workload, c.technique, c.style, c.policy, log.FinalPrefix.Structural(), log.Truncated, log.CodeLen, codeLen)
		}
		n := log.Final.DirectBranches
		t.Logf("%s %s/%v/%v: %d branches, %.2f bytes each", c.workload, c.technique, c.style, c.policy,
			n, float64(len(log.Sites))/float64(n))
		encoded += uint64(len(log.Sites))
		resident += uint64(len(log.Sites) + 4*len(log.Points))
		branches += n
	}
	perEncoded, perResident := float64(encoded)/float64(branches), float64(resident)/float64(branches)
	t.Logf("site table: %.2f bytes per branch encoded, %.2f resident, over %d branches", perEncoded, perResident, branches)
	if perEncoded > 4 || perResident > 4 {
		t.Errorf("site table takes %.2f bytes per branch encoded and %.2f resident, want at most 4", perEncoded, perResident)
	}
}
