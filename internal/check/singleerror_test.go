package check

import (
	"fmt"
	"testing"

	"repro/internal/comp"
	"repro/internal/cpu"
	"repro/internal/dbt"
	"repro/internal/inject"
	"repro/internal/isa"
)

// faultRun is one faulty execution on a private clone of a warm snapshot:
// the clone (whose cache classifies the landing), the machine at the stop
// and the stop itself.
type faultRun struct {
	d    *dbt.DBT
	m    *cpu.Machine
	stop cpu.Stop
}

func runOnClone(snap *dbt.Snapshot, f *cpu.Fault, maxSteps uint64) faultRun {
	d := snap.NewDBT()
	m, res := d.Start(f)
	if res != nil {
		return faultRun{d: d, stop: res.Stop}
	}
	return faultRun{d: d, m: m, stop: d.Advance(m, maxSteps)}
}

func (r faultRun) detected() bool {
	return r.stop.Reason == cpu.StopReport || r.stop.Reason.IsHardwareTrap()
}

// TestSingleErrorGate checks the paper's Section 4 single-error model on
// the code the techniques emit, run by the engine. A branch error is one
// faulted execution of one branch, so a flag-bit flip is an error of the
// one branch that reads it: category A when it reverses that branch, No
// Error when it does not. Over fixed-size random programs, RCF, EdgCF and
// ECF in both update styles under ALLBB, every dynamic direct branch and
// both execution backends:
//
//   - Rule 1: a flag flip that reverses the branch is detected, unless it
//     lands in one of the two documented residual gaps
//     (inject.IsResidualGap).
//   - Rule 2: a flag flip that keeps the direction ends with the clean
//     run's stop, output, registers and flags.
//   - Rule 3: under RCF (both styles), every offset-bit flip that ends in
//     silent data corruption lands in a residual gap.
func TestSingleErrorGate(t *testing.T) {
	for prog := 0; prog < 3; prog++ {
		p := gateProgram(t, int64(11000+prog*41), fmt.Sprintf("gate-%d", prog))
		for _, style := range []dbt.UpdateStyle{dbt.UpdateJcc, dbt.UpdateCmov} {
			for _, tech := range DBTTechniques(style) {
				for _, b := range backends {
					gateConfig(t, p, tech, style, b)
				}
			}
		}
	}
}

// FuzzSingleErrorGate is TestSingleErrorGate's fuzz form: the same rules
// on the gate-sized random program of seed 11000+prog, under the
// technique, update style and backend sel picks.
func FuzzSingleErrorGate(f *testing.F) {
	// sel: bit 0 the style (Jcc, CMOVcc), bits 1-2 the technique (RCF,
	// EdgCF, ECF, RCF), bit 4 the backend (step, compile).
	f.Add(uint16(0), uint8(0))   // RCF/Jcc, step
	f.Add(uint16(41), uint8(3))  // EdgCF/CMOVcc, step
	f.Add(uint16(9), uint8(4))   // ECF/Jcc, step
	f.Add(uint16(82), uint8(16)) // RCF/Jcc, compile
	f.Add(uint16(7), uint8(17))  // RCF/CMOVcc, compile
	f.Add(uint16(5), uint8(18))  // EdgCF/Jcc, compile
	f.Add(uint16(12), uint8(21)) // ECF/CMOVcc, compile
	f.Fuzz(func(t *testing.T, prog uint16, sel uint8) {
		p := gateProgram(t, 11000+int64(prog), fmt.Sprintf("gatefuzz-%d", prog))
		style := []dbt.UpdateStyle{dbt.UpdateJcc, dbt.UpdateCmov}[sel&1]
		techs := DBTTechniques(style)
		gateConfig(t, p, techs[int(sel>>1&3)%len(techs)], style, backends[int(sel>>4&1)])
	})
}

// gateProgram builds the gate's small random program of the given seed:
// few enough dynamic branches that every (branch, bit) site is swept.
func gateProgram(t *testing.T, seed int64, name string) *isa.Program {
	t.Helper()
	prof := randomProfile(seed)
	prof.Name = name
	prof.Funcs, prof.OuterIters = 2, 1
	prof.InnerItersMin, prof.InnerItersMax = 2, 4
	p, err := prof.Build(1)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return p
}

// gateConfig applies the gate's rules to p under one technique, update
// style and backend, with ALLBB.
func gateConfig(t *testing.T, p *isa.Program, tech dbt.Technique, style dbt.UpdateStyle, b comp.Backend) {
	t.Helper()
	name := fmt.Sprintf("%s/%s/%s/%s", p.Name, tech.Name(), style, b)
	d := dbt.New(p, dbt.Options{Technique: tech, Policy: dbt.PolicyAllBB, Backend: b})
	if res := d.Run(nil, 50_000_000); res.Stop.Reason != cpu.StopHalt {
		t.Fatalf("%s: clean stop %v", name, res.Stop)
	}
	snap := d.Snapshot()
	clean := runOnClone(snap, nil, 50_000_000)
	if clean.stop.Reason != cpu.StopHalt {
		t.Fatalf("%s: clean clone stop %v", name, clean.stop)
	}
	budget := 4*clean.m.Steps + 10_000
	sweepSingleErrors(t, name, snap, clean, budget, tech.Name() == "RCF")
}

// sweepSingleErrors applies the gate's rules to every (branch, bit) site
// of one configuration.
func sweepSingleErrors(t *testing.T, name string, snap *dbt.Snapshot, clean faultRun, budget uint64, offsets bool) {
	t.Helper()
	want := clean.m.Output
	for idx := uint64(0); idx < clean.m.DirectBranches; idx++ {
		for bit := uint(0); bit < isa.NumFlagBits; bit++ {
			f := &cpu.Fault{BranchIndex: idx, Kind: cpu.FaultFlagBit, Bit: bit}
			r := runOnClone(snap, f, budget)
			if !f.Fired {
				t.Fatalf("%s: flag fault at branch %d did not fire", name, idx)
			}
			if f.FaultTaken != f.CleanTaken {
				landing := f.FaultIP + 1
				if f.FaultTaken {
					landing = f.FaultTarget
				}
				if !r.detected() && !inject.IsResidualGap(r.d, landing) {
					t.Errorf("%s: branch %d flag bit %d reverses the branch (landing %#x) and ends %v undetected",
						name, idx, bit, landing, r.stop)
				}
				continue
			}
			if r.stop != clean.stop || !equalOut(r.m.Output, want) ||
				r.m.Regs != clean.m.Regs || r.m.Flags != clean.m.Flags {
				t.Errorf("%s: branch %d flag bit %d keeps the direction but ends %v (clean %v)",
					name, idx, bit, r.stop, clean.stop)
			}
		}
		if !offsets {
			continue
		}
		for bit := uint(0); bit < isa.OffsetBits; bit++ {
			f := &cpu.Fault{BranchIndex: idx, Kind: cpu.FaultOffsetBit, Bit: bit}
			r := runOnClone(snap, f, budget)
			if r.stop.Reason == cpu.StopHalt && !equalOut(r.m.Output, want) &&
				!inject.IsResidualGap(r.d, f.FaultTarget) {
				t.Errorf("%s: branch %d offset bit %d: SDC outside the residual gaps (target %#x)",
					name, idx, bit, f.FaultTarget)
			}
		}
	}
}
