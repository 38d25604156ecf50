package inject

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/check"
	"repro/internal/dbt"
)

// All six coverage-matrix techniques must keep the byte-identity invariant
// with short-circuits, rejoins and the compiled backend active: checkpoint
// reports equal full replay at workers 1 and 4, dynamic and static engines
// alike. Both shortcuts must also fire, or equivalence passes vacuously:
// ShortLive on the flag flips that keep their branch's direction, and
// Rejoined on register faults, which are never short-circuited.
func TestShortCircuitEquivalenceAllTechniques(t *testing.T) {
	p := mustAssemble(t, workload)
	base := Config{
		Samples:     200,
		Seed:        42,
		KeepRecords: true,
		MaxSteps:    2_000_000,
		Options:     Options{Workers: 1},
	}

	flagNoOps, regRejoins := 0, 0
	compare := func(t *testing.T, name string, regFaults bool, replay *Report, run func(cfg Config) (*Report, error)) {
		t.Helper()
		for _, w := range []int{1, 4} {
			cfg := base
			cfg.Workers = w
			cfg.CkptInterval = -1
			rep, err := run(cfg)
			if err != nil {
				t.Fatalf("%s ckpt workers=%d: %v", name, w, err)
			}
			if !reflect.DeepEqual(reportKey(rep), reportKey(replay)) {
				t.Errorf("%s ckpt workers=%d: report differs from replay", name, w)
			}
			if fg, fw := formatKey(rep), formatKey(replay); fg != fw {
				t.Errorf("%s ckpt workers=%d: formatted report differs\n got:\n%s\nwant:\n%s", name, w, fg, fw)
			}
			if got := rep.Executed + rep.ShortOffset + rep.ShortLive; got != rep.Samples {
				t.Errorf("%s ckpt workers=%d: engine counters sum to %d, want %d samples",
					name, w, got, rep.Samples)
			}
			if regFaults {
				if rep.ShortLive != 0 {
					t.Errorf("%s ckpt workers=%d: %d register faults short-circuited", name, w, rep.ShortLive)
				}
				regRejoins += rep.Rejoined
			} else {
				flagNoOps += rep.ShortLive
			}
		}
		if replay.ShortOffset != 0 || replay.ShortLive != 0 || replay.Executed != replay.Samples {
			t.Errorf("%s replay short-circuited: %+v", name, reportKey(replay))
		}
	}

	// Dynamic engine: the four DBT techniques, under branch faults and
	// under register faults.
	for _, name := range []string{"none", "ECF", "EdgCF", "RCF"} {
		tech, err := check.New(name, dbt.UpdateCmov)
		if err != nil {
			t.Fatal(err)
		}
		for _, regFaults := range []bool{false, true} {
			cfg := base
			cfg.Technique = tech
			cfg.RegFaults = regFaults
			replay, err := Execute(context.Background(), p, cfg)
			if err != nil {
				t.Fatalf("%s replay: %v", name, err)
			}
			compare(t, name, regFaults, replay, func(cfg2 Config) (*Report, error) {
				cfg2.Technique = tech
				cfg2.RegFaults = regFaults
				return Execute(context.Background(), p, cfg2)
			})
		}
	}

	// Static engine: the two statically instrumented baselines.
	for name, kind := range map[string]check.StaticKind{
		"CFCSS": check.StaticCFCSS,
		"ECCA":  check.StaticECCA,
	} {
		ip, err := check.InstrumentStatic(p, kind)
		if err != nil {
			t.Fatal(err)
		}
		replay, err := Execute(context.Background(), ip, base, AsStatic(name))
		if err != nil {
			t.Fatalf("%s replay: %v", name, err)
		}
		compare(t, name, false, replay, func(cfg2 Config) (*Report, error) {
			return Execute(context.Background(), ip, cfg2, AsStatic(name))
		})
	}

	if flagNoOps == 0 {
		t.Error("no flag flip that kept its branch's direction was short-circuited")
	}
	if regRejoins == 0 {
		t.Error("no register fault rejoined the reference run")
	}
}
