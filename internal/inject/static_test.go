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
// both engines and both backends. One warm state serves concurrent
// campaigns on either backend, as a session's does: step campaigns build
// no engine, and the first compiled campaign freezes the one engine every
// later campaign shares. The frozen engine compiles only the blocks the
// clean run reached, a small part of the program's CFG.
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
	if blocks := len(n.blocks.Starts); len(n.starts) == 0 || len(n.starts) >= blocks {
		t.Errorf("warm state keeps %d starts of %d CFG blocks, want a non-empty reached subset", len(n.starts), blocks)
	}

	type run struct {
		ck      int64
		backend comp.Backend
	}
	config := func(r run) Config {
		return Config{Samples: 120, Seed: 3, KeepRecords: true, Options: Options{CkptInterval: r.ck, Workers: 2, Backend: r.backend}}
	}
	var runs []run
	cold := map[run]*Report{}
	for _, ck := range []int64{0, -1} {
		for _, b := range []comp.Backend{comp.BackendStep, comp.BackendCompile} {
			r := run{ck, b}
			c := config(r)
			if cold[r], err = Execute(context.Background(), p, c, AsStatic("CFCSS")); err != nil {
				t.Fatal(err)
			}
			if b == comp.BackendStep {
				if _, err := Execute(context.Background(), p, c, AsStatic("CFCSS"), WithNative(n)); err != nil {
					t.Fatal(err)
				}
				if n.eng != nil {
					t.Fatal("a step-backend campaign froze an engine")
				}
			}
			runs = append(runs, r, r)
		}
	}

	warm := make([]*Report, len(runs))
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i, r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			warm[i], errs[i] = Execute(context.Background(), p, config(r), AsStatic("CFCSS"), WithNative(n))
		}()
	}
	wg.Wait()
	eng := n.engine()
	if got := newNativeTarget(n, comp.BackendCompile).eng; got != eng || eng == nil || !eng.Frozen() {
		t.Errorf("compiled targets share engine %p, warm state holds %p (frozen %v)", got, eng, eng != nil && eng.Frozen())
	}
	if newNativeTarget(n, comp.BackendStep).eng != nil {
		t.Error("a step-backend target holds an engine")
	}
	for i, w := range warm {
		r := runs[i]
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want := cold[r]
		if !reflect.DeepEqual(reportKey(w), reportKey(want)) {
			t.Errorf("%+v: warm-state report differs from cold\n got: %+v\nwant: %+v", r, reportKey(w), reportKey(want))
		}
		if w.Compiled != want.Compiled || w.WarmCompiled != want.WarmCompiled || w.Executed != want.Executed {
			t.Errorf("%+v: compiled %+v (warm %+v, %d executed), cold %+v (warm %+v, %d executed)",
				r, w.Compiled, w.WarmCompiled, w.Executed, want.Compiled, want.WarmCompiled, want.Executed)
		}
		if r.backend == comp.BackendStep {
			continue
		}
		if w.WarmCompiled != eng.Stats || w.WarmCompiled.BlocksCompiled == 0 || w.WarmCompiled.BlocksCompiled > uint64(len(n.starts)) {
			t.Errorf("%+v: froze %+v from %d warm starts, engine %+v", r, w.WarmCompiled, len(n.starts), eng.Stats)
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
