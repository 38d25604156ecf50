package check

import (
	"context"
	"testing"

	"repro/internal/cpu"
	"repro/internal/dbt"
	"repro/internal/inject"
	"repro/internal/isa"
)

// TestDFCTransparency: the data-flow transform must preserve behavior
// exactly, alone and stacked with every control-flow technique.
func TestDFCTransparency(t *testing.T) {
	for name, src := range transparencyPrograms {
		p := mustAssemble(t, src)
		want := nativeOut(t, p)
		for _, body := range []dbt.BodyTransform{&DFC{}, &DFC{SyncAtCmps: true}} {
			for _, tech := range []dbt.Technique{dbt.None{}, &RCF{Style: dbt.UpdateCmov}, &EdgCF{Style: dbt.UpdateJcc}, &ECF{Style: dbt.UpdateCmov}} {
				d := dbt.New(p, dbt.Options{Technique: tech, Body: body})
				res := d.Run(nil, 100_000_000)
				if res.Stop.Reason != cpu.StopHalt {
					t.Errorf("%s/%s/%s: stop %v", name, tech.Name(), body.Name(), res.Stop)
					continue
				}
				if !equalOut(res.Output, want) {
					t.Errorf("%s/%s/%s: output %v, want %v", name, tech.Name(), body.Name(), res.Output, want)
				}
			}
		}
	}
}

// TestDFCDetectsRegisterFaults: flip a bit in a shadowed register feeding
// the output; without DFC the run silently corrupts, with DFC it reports.
func TestDFCDetectsRegisterFaults(t *testing.T) {
	p := mustAssemble(t, transparencyPrograms["sum"])
	want := nativeOut(t, p)

	outcomes := func(body dbt.BodyTransform) (detected, sdc int) {
		d := dbt.New(p, dbt.Options{Technique: &RCF{Style: dbt.UpdateCmov}, Body: body})
		clean := d.Run(nil, 1_000_000)
		if clean.Stop.Reason != cpu.StopHalt {
			t.Fatalf("clean: %v", clean.Stop)
		}
		for step := uint64(0); step < clean.Steps; step += 2 {
			// eax is the accumulator: bit 7 flips are value-changing.
			f := &cpu.Fault{Kind: cpu.FaultRegBit, StepIndex: step, Reg: isa.EAX, Bit: 7}
			res := d.Run(f, 1_000_000)
			if !f.Fired {
				continue
			}
			switch {
			case res.Stop.Reason == cpu.StopReport:
				detected++
			case res.Stop.Reason == cpu.StopHalt && !equalOut(res.Output, want):
				sdc++
			}
		}
		return detected, sdc
	}

	detNone, sdcNone := outcomes(nil)
	detDFC, sdcDFC := outcomes(&DFC{})
	if detNone != 0 {
		t.Errorf("control-flow checking alone detected %d register faults; expected 0", detNone)
	}
	if sdcNone == 0 {
		t.Fatal("no effective register faults; test is vacuous")
	}
	if detDFC == 0 {
		t.Errorf("DFC detected nothing (none: %d SDCs)", sdcNone)
	}
	if sdcDFC >= sdcNone {
		t.Errorf("DFC did not reduce SDCs: %d vs %d without", sdcDFC, sdcNone)
	}
}

// TestDFCUnshadowedRegsEscape documents the partial-protection trade:
// faults in an unshadowed register (edi here) escape as silent corruption
// when they strike outside the duplication window. (A strike *between* the
// shadow copy and the original of one instruction still gets caught — the
// two copies consume different values — which is the time-redundancy bonus
// real SWIFT gets too.)
func TestDFCUnshadowedRegsEscape(t *testing.T) {
	src := `
main:
    movi edi, 5
    movi eax, 0
loop:
    add eax, edi
    subi edi, 1
    cmpi edi, 0
    jgt loop
    out eax
    halt
`
	p := mustAssemble(t, src)
	want := nativeOut(t, p)
	d := dbt.New(p, dbt.Options{Body: &DFC{}})
	clean := d.Run(nil, 1_000_000)
	sdc, detected := 0, 0
	for step := uint64(0); step < clean.Steps; step++ {
		f := &cpu.Fault{Kind: cpu.FaultRegBit, StepIndex: step, Reg: isa.EDI, Bit: 1}
		res := d.Run(f, 1_000_000)
		if !f.Fired {
			continue
		}
		switch {
		case res.Stop.Reason == cpu.StopHalt && !equalOut(res.Output, want):
			sdc++
		case res.Stop.Reason == cpu.StopReport:
			detected++
		}
	}
	if sdc == 0 {
		t.Errorf("every edi fault was caught (%d detections); unshadowed registers should leave escapes", detected)
	}
}

// TestDFCOverhead: duplication costs real cycles; stacking RCF+DFC costs
// more than either alone (the paper's future-work measurement).
func TestDFCOverhead(t *testing.T) {
	p := mustAssemble(t, transparencyPrograms["nested-loops"])
	cycles := func(tech dbt.Technique, body dbt.BodyTransform) uint64 {
		d := dbt.New(p, dbt.Options{Technique: tech, Body: body})
		res := d.Run(nil, 100_000_000)
		if res.Stop.Reason != cpu.StopHalt {
			t.Fatalf("stop %v", res.Stop)
		}
		return res.Cycles
	}
	base := cycles(dbt.None{}, nil)
	dfc := cycles(dbt.None{}, &DFC{})
	dfcCmp := cycles(dbt.None{}, &DFC{SyncAtCmps: true})
	rcf := cycles(&RCF{Style: dbt.UpdateJcc}, nil)
	both := cycles(&RCF{Style: dbt.UpdateJcc}, &DFC{})
	if !(dfc > base) {
		t.Errorf("DFC %d !> base %d", dfc, base)
	}
	if !(dfcCmp > dfc) {
		t.Errorf("DFC+cmp %d !> DFC %d", dfcCmp, dfc)
	}
	if !(both > rcf && both > dfc) {
		t.Errorf("RCF+DFC %d should exceed RCF %d and DFC %d", both, rcf, dfc)
	}
}

// TestDFCRegFaultCampaign: the randomized register-fault campaign through
// the inject package, comparing protection levels.
func TestDFCRegFaultCampaign(t *testing.T) {
	p := mustAssemble(t, transparencyPrograms["calls"])
	run := func(body dbt.BodyTransform) *inject.Report {
		tech, _ := New("RCF", dbt.UpdateCmov)
		rep, err := inject.Execute(context.Background(), p, inject.Config{
			Technique: tech, Body: body, RegFaults: true, Samples: 300, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	without := run(nil)
	with := run(&DFC{SyncAtCmps: true})
	if with.Totals.Coverage() <= without.Totals.Coverage() {
		t.Errorf("DFC coverage %.3f <= bare %.3f", with.Totals.Coverage(), without.Totals.Coverage())
	}
	if with.Totals.Count[inject.OutSDC] >= without.Totals.Count[inject.OutSDC] {
		t.Errorf("DFC SDCs %d >= bare %d", with.Totals.Count[inject.OutSDC], without.Totals.Count[inject.OutSDC])
	}
}
