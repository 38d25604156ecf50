package inject

import (
	"context"
	"testing"

	"repro/internal/check"
	"repro/internal/cpu"
	"repro/internal/dbt"
	"repro/internal/isa"
)

const staticProg = `
main:
    movi eax, 0
    movi ecx, 12
loop:
    add eax, ecx
    cmpi eax, 40
    jlt keep
    subi eax, 13
keep:
    subi ecx, 1
    cmpi ecx, 0
    jgt loop
    out eax
    halt
`

func TestStaticCampaignBasics(t *testing.T) {
	p := mustAssemble(t, staticProg)
	rep, err := Execute(context.Background(), p, Config{Samples: 200, Seed: 5, KeepRecords: true}, AsStatic("native"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Technique != "native" {
		t.Errorf("label = %q", rep.Technique)
	}
	if rep.Totals.Total+rep.NotFired != rep.Samples {
		t.Error("sample accounting broken")
	}
	if rep.Totals.Total == 0 {
		t.Fatal("no faults fired")
	}
	// An unprotected program must exhibit silent corruption somewhere.
	if rep.Totals.Count[OutSDC] == 0 {
		t.Error("no SDCs on an unprotected program; fault model inert?")
	}
	// Category F faults are hardware-caught.
	sum := 0
	for _, a := range rep.ByCat {
		sum += a.Total
	}
	if sum != rep.Totals.Total {
		t.Error("category totals do not add up")
	}
}

func TestStaticCampaignErrors(t *testing.T) {
	spin := &isa.Program{Name: "spin", Code: []isa.Instr{{Op: isa.OpJmp, Imm: -1}}}
	if _, err := Execute(context.Background(), spin, Config{Samples: 1, MaxSteps: 100}, AsStatic("x")); err == nil {
		t.Error("non-halting program must fail")
	}
	nobranch := mustAssemble(t, "movi eax, 1\nout eax\nhalt\n")
	if _, err := Execute(context.Background(), nobranch, Config{Samples: 1}, AsStatic("x")); err == nil {
		t.Error("branch-free program must fail")
	}
	// The native path injects branch faults only and hosts no translator
	// transform: requests it cannot honour must fail, not silently run a
	// different campaign.
	p := mustAssemble(t, staticProg)
	for name, c := range map[string]Config{
		"RegFaults": {Samples: 1, RegFaults: true},
		"Technique": {Samples: 1, Technique: dbt.None{}},
		"Body":      {Samples: 1, Body: &check.DFC{}},
	} {
		if _, err := Execute(context.Background(), p, c, AsStatic("x")); err == nil {
			t.Errorf("AsStatic with %s must fail", name)
		}
	}
}

func TestStaticCampaignLatency(t *testing.T) {
	p := mustAssemble(t, staticProg)
	rep, err := Execute(context.Background(), p, Config{Samples: 300, Seed: 9}, AsStatic("native"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.LatencyN > 0 && rep.MeanLatency() < 0 {
		t.Error("negative latency")
	}
	if FormatReport(rep) == "" {
		t.Error("empty report")
	}
}

func TestIsResidualGap(t *testing.T) {
	p := mustAssemble(t, staticProg)
	d := dbt.New(p, dbt.Options{})
	d.Run(nil, 1_000_000)
	// Find the halt instruction in the cache: landing there is the exit gap.
	foundHalt := false
	for a := uint32(0); a < uint32(d.CacheLen()); a++ {
		if d.CacheInstr(a).Op == isa.OpHalt {
			foundHalt = true
			if !IsResidualGap(d, a) {
				t.Errorf("halt at %#x not classified as exit gap", a)
			}
		}
	}
	if !foundHalt {
		t.Fatal("no halt in cache")
	}
	// A body instruction far from any report is not a gap.
	for a := uint32(0); a < uint32(d.CacheLen()); a++ {
		in := d.CacheInstr(a)
		if in.Op == isa.OpAdd {
			if IsResidualGap(d, a) {
				t.Errorf("plain add at %#x misclassified as gap", a)
			}
			break
		}
	}
}

func TestRegFaultCampaignViaConfig(t *testing.T) {
	p := mustAssemble(t, staticProg)
	rep, err := Execute(context.Background(), p, Config{RegFaults: true, Samples: 150, Seed: 2, MaxSteps: 2_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Totals.Total == 0 {
		t.Fatal("no register faults fired")
	}
	// All register faults are classified CatData.
	for c, a := range rep.ByCat {
		if c.String() != "Data" && a.Total > 0 {
			t.Errorf("register fault classified as %v", c)
		}
	}
}

func TestOutcomeOfFaultedStaticRun(t *testing.T) {
	// Deterministic: flip the direction of the loop-exit branch on its
	// last iteration so the loop runs longer -> wrong output.
	p := mustAssemble(t, staticProg)
	m := cpu.New()
	m.Reset(p)
	clean := m.Run(p.Code, 1_000_000)
	if clean.Reason != cpu.StopHalt {
		t.Fatal(clean)
	}
	want := append([]int32(nil), m.Output...)

	m2 := cpu.New()
	m2.Reset(p)
	m2.Fault = &cpu.Fault{BranchIndex: 0, Kind: cpu.FaultFlagBit, Bit: 2}
	stop := m2.Run(p.Code, 1_000_000)
	out := classifyOutcome(&dbt.Result{Stop: stop, Output: m2.Output}, want)
	if out != OutBenign && out != OutSDC && out != OutDetectedHW && out != OutHang {
		t.Errorf("unexpected outcome %v", out)
	}
}
