package check

import (
	"fmt"
	"testing"

	"repro/internal/comp"
	"repro/internal/cpu"
	"repro/internal/dbt"
	"repro/internal/isa"
)

// backendOutcome is everything the execution backends must agree on for
// one run: the full architectural and counter state at the stop, the stop
// itself, and the output stream.
type backendOutcome struct {
	state cpu.State
	stop  cpu.Stop
	out   []int32
}

// backends are the execution backends the differential tests compare; the
// step interpreter, first, is the ground truth.
var backends = []comp.Backend{comp.BackendStep, comp.BackendCompile}

// TestBackendDifferential is the backend property test: random structured
// programs run under the step interpreter and the block-compiled backend
// must produce identical cpu.State (registers, flags, IP,
// step/cycle/branch/check counters), stop and output bytes — for every
// technique × policy. The compiled backend must be a pure performance
// transform.
func TestBackendDifferential(t *testing.T) {
	const maxSteps = 200_000_000
	for i := 0; i < 8; i++ {
		prof := randomProfile(int64(3000 + i*23))
		prof.Name = fmt.Sprintf("bfuzz-%d", i)
		p, err := prof.Build(0.02)
		if err != nil {
			t.Fatalf("%s: %v", prof.Name, err)
		}
		style := dbt.UpdateJcc
		if i%2 == 1 {
			style = dbt.UpdateCmov
		}
		pol := dbt.Policies()[i%4]
		for _, tech := range append(DBTTechniques(style), dbt.None{}) {
			var want backendOutcome
			for bi, b := range backends {
				d := dbt.New(p, dbt.Options{
					Technique: tech, Policy: pol, Backend: b,
					TraceThreshold: 5 + i%40,
				})
				m, res := d.Start(nil)
				if res != nil {
					t.Fatalf("%s/%s/%s/%s: start: %v", prof.Name, tech.Name(), pol, b, res.Stop)
				}
				stop := d.Advance(m, maxSteps)
				got := backendOutcome{state: m.CaptureState(), stop: stop, out: m.Output}
				if got.stop.Reason != cpu.StopHalt {
					t.Fatalf("%s/%s/%s/%s: stop %v", prof.Name, tech.Name(), pol, b, got.stop)
				}
				if bi == 0 {
					want = got
					continue
				}
				if got.state != want.state || got.stop != want.stop {
					t.Errorf("%s/%s/%s/%s: state diverged from step backend\n got: %+v %v\nwant: %+v %v",
						prof.Name, tech.Name(), pol, b, got.state, got.stop, want.state, want.stop)
				}
				if !equalOut(got.out, want.out) {
					t.Errorf("%s/%s/%s/%s: output diverged from step backend",
						prof.Name, tech.Name(), pol, b)
				}
			}
		}
	}
}

// TestBackendDifferentialUnderFaults extends the property to faulty runs:
// the same planted fault must fire at the same dynamic site and classify
// identically — same stop, same step/cycle counters, same output — on
// every backend. One warm translator per backend runs the same fault
// sequence, so chain-patching state evolves in lockstep too.
func TestBackendDifferentialUnderFaults(t *testing.T) {
	const maxSteps = 100_000_000
	for i := 0; i < 3; i++ {
		prof := randomProfile(int64(5000 + i*31))
		prof.Name = fmt.Sprintf("bffuzz-%d", i)
		p, err := prof.Build(0.02)
		if err != nil {
			t.Fatal(err)
		}
		tech := func() dbt.Technique { return &RCF{Style: dbt.UpdateCmov} }
		ds := make([]*dbt.DBT, len(backends))
		for bi, b := range backends {
			ds[bi] = dbt.New(p, dbt.Options{Technique: tech(), Backend: b})
			if r := ds[bi].Run(nil, maxSteps); r.Stop.Reason != cpu.StopHalt {
				t.Fatalf("%s/%v: clean %v", prof.Name, b, r.Stop)
			}
		}
		for idx := uint64(0); idx < 40; idx += 5 {
			for _, bit := range []uint{0, 2, 9, 20} {
				var want *dbt.Result
				var wantFired bool
				for bi, b := range backends {
					f := &cpu.Fault{BranchIndex: idx, Kind: cpu.FaultOffsetBit, Bit: bit}
					got := ds[bi].Run(f, maxSteps)
					if bi == 0 {
						want, wantFired = got, f.Fired
						continue
					}
					if f.Fired != wantFired {
						t.Fatalf("%s/%v: fault idx=%d bit=%d fired=%v, step backend fired=%v",
							prof.Name, b, idx, bit, f.Fired, wantFired)
					}
					if got.Stop != want.Stop || got.Steps != want.Steps ||
						got.Cycles != want.Cycles || !equalOut(got.Output, want.Output) {
						t.Errorf("%s/%v: fault idx=%d bit=%d diverged\n got: %v steps=%d cycles=%d\nwant: %v steps=%d cycles=%d",
							prof.Name, b, idx, bit,
							got.Stop, got.Steps, got.Cycles,
							want.Stop, want.Steps, want.Cycles)
					}
				}
			}
		}
	}
}

// FuzzBackendDifferential searches for step≠compile under faults. Each
// input picks one of TestBackendDifferentialUnderFaults's random programs,
// a technique and policy, and one planted fault (any kind, at any dynamic
// site of the clean run). Each backend warms a translator with the clean
// run, snapshots it, and runs the fault on a snapshot clone — the
// campaign path, where the compiled backend executes from a frozen core.
// Both backends must agree on state, counters, translator stats, output,
// Stop and the fault record. Plain go test replays the seeds below and
// testdata/fuzz/FuzzBackendDifferential.
func FuzzBackendDifferential(f *testing.F) {
	f.Add(uint16(0), uint8(1), uint8(0), uint8(0), uint32(5), uint8(9), uint8(0))
	f.Add(uint16(31), uint8(0), uint8(1), uint8(1), uint32(40), uint8(0), uint8(0))
	f.Add(uint16(62), uint8(7), uint8(3), uint8(2), uint32(2000), uint8(5), uint8(4))
	f.Fuzz(func(t *testing.T, prog uint16, techSel, polSel, kind uint8, index uint32, bit, reg uint8) {
		prof := randomProfile(5000 + int64(prog))
		prof.Name = fmt.Sprintf("bdfuzz-%d", prog)
		p, err := prof.Build(0.02)
		if err != nil {
			t.Skip(err)
		}
		style := dbt.UpdateJcc
		if techSel&1 == 1 {
			style = dbt.UpdateCmov
		}
		techs := append(DBTTechniques(style), dbt.None{})
		tech := techs[int(techSel>>1)%len(techs)]
		pols := dbt.Policies()
		pol := pols[int(polSel)%len(pols)]

		type outcome struct {
			backendOutcome
			stats dbt.Stats
			fault cpu.Fault
		}
		var want outcome
		var budget uint64
		for bi, b := range backends {
			d := dbt.New(p, dbt.Options{Technique: tech, Policy: pol, Backend: b})
			clean := d.Run(nil, 200_000_000)
			if clean.Stop.Reason != cpu.StopHalt {
				t.Fatalf("%s/%v: clean %v", prof.Name, b, clean.Stop)
			}
			f := &cpu.Fault{Kind: cpu.FaultKind(kind % 3), Bit: uint(bit) % 32}
			if f.Kind == cpu.FaultRegBit {
				f.StepIndex = uint64(index) % (clean.Steps + 1)
				f.Reg = isa.Reg(int(reg) % isa.NumRegs)
			} else {
				f.BranchIndex = uint64(index) % (clean.DirectBranches + 1)
			}
			// A fault can loop forever outside the ALLBB policy; twice the
			// clean run is far past any detection latency.
			budget = 2*clean.Steps + 10_000
			c := d.Snapshot().NewDBT()
			m, res := c.Start(f)
			if res != nil {
				t.Fatalf("%s/%v: start: %v", prof.Name, b, res.Stop)
			}
			stop := c.Advance(m, budget)
			got := outcome{
				backendOutcome: backendOutcome{state: m.CaptureState(), stop: stop, out: m.Output},
				stats:          c.StatsSnapshot(),
				fault:          *f,
			}
			if bi == 0 {
				want = got
				continue
			}
			if got.state != want.state || got.stop != want.stop || got.stats != want.stats || got.fault != want.fault {
				t.Errorf("%s/%s/%s/%v: %+v diverged from step\n got: %+v %v\n      %+v\n      %+v\nwant: %+v %v\n      %+v\n      %+v",
					prof.Name, tech.Name(), pol, b, *f,
					got.state, got.stop, got.stats, got.fault,
					want.state, want.stop, want.stats, want.fault)
			}
			if !equalOut(got.out, want.out) {
				t.Errorf("%s/%s/%s/%v: %+v output diverged from step", prof.Name, tech.Name(), pol, b, *f)
			}
		}
	})
}
