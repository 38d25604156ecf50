package inject

import (
	"context"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/dbt"
	"repro/internal/errmodel"
	"repro/internal/isa"

	"repro/internal/check"
)

func mustAssemble(t testing.TB, src string) *isa.Program {
	t.Helper()
	p, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

const workload = `
main:
    movi eax, 0
    movi ecx, 40
outer:
    movi edx, 5
inner:
    addi eax, 1
    cmpi eax, 1000
    jlt keep
    movi eax, 0
keep:
    subi edx, 1
    cmpi edx, 0
    jgt inner
    call bump
    subi ecx, 1
    cmpi ecx, 0
    jgt outer
    out eax
    out ecx
    halt
bump:
    addi eax, 3
    ret
`

func TestCampaignBasics(t *testing.T) {
	p := mustAssemble(t, workload)
	tech, err := check.New("RCF", dbt.UpdateCmov)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Execute(context.Background(), p, Config{Technique: tech, Samples: 300, Seed: 1, KeepRecords: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Totals.Total == 0 {
		t.Fatal("no faults fired")
	}
	if rep.Totals.Total+rep.NotFired != rep.Samples {
		t.Errorf("accounting: %d fired + %d not = %d samples",
			rep.Totals.Total, rep.NotFired, rep.Samples)
	}
	if len(rep.Records) != rep.Totals.Total {
		t.Error("KeepRecords mismatch")
	}
	// Per-category aggregates must sum to totals.
	sum := 0
	for _, a := range rep.ByCat {
		sum += a.Total
	}
	if sum != rep.Totals.Total {
		t.Errorf("category sum %d != total %d", sum, rep.Totals.Total)
	}
}

// TestRCFNoSDC: the paper's headline coverage claim. RCF + ALLBB must leave
// zero silent data corruptions across a randomized campaign, in both update
// styles — except for the one gap no signature scheme closes (the paper's
// Assumption 2): a branch error landing directly on the program-exit
// instruction, past the final check, reaches no CHECK_SIG at all.
func TestRCFNoSDC(t *testing.T) {
	p := mustAssemble(t, workload)
	for _, style := range []dbt.UpdateStyle{dbt.UpdateJcc, dbt.UpdateCmov} {
		tech, _ := check.New("RCF", style)
		rep, err := Execute(context.Background(), p, Config{Technique: tech, Policy: dbt.PolicyAllBB, Samples: 500, Seed: 7, KeepRecords: true})
		if err != nil {
			t.Fatal(err)
		}
		// A second, subtler residual gap is a violation of the paper's
		// Assumption 1 (CHECK_SIG atomicity): a branch error landing *inside*
		// the check sequence of its own correct target — past the jcxz, on the
		// ECX restore — leaves the signature chain consistent while corrupting
		// the guest's ECX through the staging registers. The paper assumes
		// such landings "usually lead to program fails or checking fails";
		// the campaign measures the exceptions honestly.
		d := dbt.New(p, dbt.Options{Technique: tech, Policy: dbt.PolicyAllBB})
		d.Run(nil, 50_000_000)
		for _, rec := range rep.Records {
			if rec.Outcome != OutSDC {
				continue
			}
			if !IsResidualGap(d, rec.Fault.FaultTarget) {
				t.Errorf("RCF/%s/ALLBB: SDC not explained by the exit or check-atomicity gaps: %+v\n%s",
					style, rec.Fault, FormatReport(rep))
			}
		}
		if rep.Totals.Detected() == 0 {
			t.Errorf("RCF/%s: campaign detected nothing; fault model inert?", style)
		}
	}
}

// TestCoverageOrdering: RCF must not be beaten by the uninstrumented
// baseline, and instrumentation must slash SDCs relative to none.
func TestCoverageOrdering(t *testing.T) {
	p := mustAssemble(t, workload)
	run := func(name string) *Report {
		tech, err := check.New(name, dbt.UpdateCmov)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Execute(context.Background(), p, Config{Technique: tech, Samples: 400, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	none := run("none")
	rcf := run("RCF")
	edg := run("EdgCF")
	ecf := run("ECF")

	if !(rcf.Totals.Coverage() >= edg.Totals.Coverage()) {
		t.Errorf("coverage: RCF %.3f < EdgCF %.3f", rcf.Totals.Coverage(), edg.Totals.Coverage())
	}
	if !(edg.Totals.Coverage() > none.Totals.Coverage()) {
		t.Errorf("coverage: EdgCF %.3f <= none %.3f", edg.Totals.Coverage(), none.Totals.Coverage())
	}
	if rcf.Totals.Count[OutSDC] > none.Totals.Count[OutSDC] {
		t.Error("RCF has more SDCs than no protection")
	}
	_ = ecf
}

// TestDetectionLatencyByPolicy: sparser checking must not reduce detection
// below the final check, but should increase mean detection latency
// (ALLBB reports fastest).
func TestDetectionLatencyByPolicy(t *testing.T) {
	p := mustAssemble(t, workload)
	lat := func(pol dbt.Policy) float64 {
		tech, _ := check.New("EdgCF", dbt.UpdateCmov)
		rep, err := Execute(context.Background(), p, Config{Technique: tech, Policy: pol, Samples: 400, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if rep.LatencyN == 0 {
			t.Fatalf("%v: no detections", pol)
		}
		return rep.MeanLatency()
	}
	all := lat(dbt.PolicyAllBB)
	end := lat(dbt.PolicyEnd)
	if all >= end {
		t.Errorf("mean latency ALLBB (%.0f) should be below END (%.0f)", all, end)
	}
}

func TestCategoryFClassification(t *testing.T) {
	p := mustAssemble(t, workload)
	tech, _ := check.New("EdgCF", dbt.UpdateCmov)
	rep, err := Execute(context.Background(), p, Config{Technique: tech, Samples: 600, Seed: 5, KeepRecords: true})
	if err != nil {
		t.Fatal(err)
	}
	f := rep.ByCat[errmodel.CatF]
	if f == nil || f.Total == 0 {
		t.Fatal("no category F faults in 600 samples (high offset bits should leave the cache)")
	}
	// All F faults are caught by hardware (the execute protection).
	if f.Count[OutDetectedHW] != f.Total {
		t.Errorf("category F: %d of %d caught by hardware\n%s",
			f.Count[OutDetectedHW], f.Total, FormatReport(rep))
	}
}

func TestNoErrorFaultsMostlyBenign(t *testing.T) {
	p := mustAssemble(t, workload)
	tech, _ := check.New("RCF", dbt.UpdateCmov)
	rep, err := Execute(context.Background(), p, Config{Technique: tech, Samples: 500, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ne := rep.ByCat[errmodel.CatNoError]
	if ne == nil || ne.Total == 0 {
		t.Skip("no no-effect faults sampled")
	}
	if ne.Count[OutBenign] == 0 {
		t.Error("no-effect faults should usually complete correctly")
	}
}

func TestCampaignErrors(t *testing.T) {
	spin := &isa.Program{Name: "spin", Code: []isa.Instr{{Op: isa.OpJmp, Imm: -1}}}
	if _, err := Execute(context.Background(), spin, Config{Samples: 1, MaxSteps: 100}); err == nil {
		t.Error("non-halting clean run must fail")
	}
	// A straight-line program executes no branches at all under the DBT
	// (single block, no chained edges): nothing to fault.
	nobranch := mustAssemble(t, "movi eax, 1\nout eax\nhalt\n")
	if _, err := Execute(context.Background(), nobranch, Config{Samples: 1}); err == nil {
		t.Error("program with no branches must fail")
	}
}

func TestFormatReport(t *testing.T) {
	p := mustAssemble(t, workload)
	tech, _ := check.New("ECF", dbt.UpdateJcc)
	rep, err := Execute(context.Background(), p, Config{Technique: tech, Samples: 50, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := FormatReport(rep)
	if !strings.Contains(s, "coverage") || !strings.Contains(s, "ECF") {
		t.Errorf("format:\n%s", s)
	}
	if OutSDC.String() != "SDC" || Outcome(99).String() != "?" {
		t.Error("outcome names")
	}
}
