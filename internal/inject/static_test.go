package inject

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/check"
	"repro/internal/comp"
	"repro/internal/cpu"
	"repro/internal/dbt"
	"repro/internal/isa"
	"repro/internal/workloads"
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
	// A native warm state serves native campaigns over its own program only.
	n, _, err := WarmNative(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(context.Background(), p, Config{Samples: 1}, WithNative(n)); err == nil {
		t.Error("WithNative without AsStatic must fail")
	}
	other := mustAssemble(t, staticProg)
	if _, err := Execute(context.Background(), other, Config{Samples: 1}, AsStatic("x"), WithNative(n)); err == nil {
		t.Error("WithNative warmed on a different program must fail")
	}
}

// A native campaign started from a pre-built warm state matches a cold one
// in its classified results and in its compiled-backend telemetry, under
// both engines. The frozen engine compiles only the blocks the clean run
// reached, a small part of the program's CFG.
func TestStaticWithNativeMatchesCold(t *testing.T) {
	prof, err := workloads.ByName("181.mcf")
	if err != nil {
		t.Fatal(err)
	}
	base, err := prof.Build(0.02)
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
	if n.cleanSteps != clean.Steps || clean.DirectBranches == 0 {
		t.Fatalf("warm state records %d clean steps, clean run %d steps / %d branches",
			n.cleanSteps, clean.Steps, clean.DirectBranches)
	}
	if blocks := len(newNativeTarget(n, comp.BackendCompile).g.Blocks); len(n.starts) == 0 || len(n.starts) >= blocks {
		t.Errorf("warm state keeps %d starts of %d CFG blocks, want a non-empty reached subset", len(n.starts), blocks)
	}
	for _, ck := range []int64{0, -1} {
		c := Config{Samples: 120, Seed: 3, KeepRecords: true, Options: Options{CkptInterval: ck, Workers: 2}}
		cold, err := Execute(context.Background(), p, c, AsStatic("CFCSS"))
		if err != nil {
			t.Fatal(err)
		}
		// Concurrent campaigns share one warm state, as a session's do; the
		// first checkpoint campaign to ask computes its liveness.
		warm := make([]*Report, 3)
		errs := make([]error, len(warm))
		var wg sync.WaitGroup
		for i := range warm {
			wg.Add(1)
			go func() {
				defer wg.Done()
				warm[i], errs[i] = Execute(context.Background(), p, c, AsStatic("CFCSS"), WithNative(n))
			}()
		}
		wg.Wait()
		for i, w := range warm {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if !reflect.DeepEqual(reportKey(w), reportKey(cold)) {
				t.Errorf("ckpt %d: warm-state report differs from cold\n got: %+v\nwant: %+v", ck, reportKey(w), reportKey(cold))
			}
			if w.Compiled != cold.Compiled {
				t.Errorf("ckpt %d: compiled stats %+v, cold %+v", ck, w.Compiled, cold.Compiled)
			}
			if w.WarmCompiled.BlocksCompiled == 0 || w.WarmCompiled.BlocksCompiled > uint64(len(n.starts)) {
				t.Errorf("ckpt %d: froze %d blocks from %d warm starts", ck, w.WarmCompiled.BlocksCompiled, len(n.starts))
			}
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
