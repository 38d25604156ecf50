package inject

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/obs"
)

// Flight-recorder integration. Campaigns never pay for forensics on the
// hot path: when a sample classifies as anomalous (SDC, hang), it is
// deterministically re-run from the same planted fault with a branch hook
// filling a fixed-size event ring, and the ring's tail is dumped as one
// JSONL line. The hook forces the step interpreter (the compiled backend
// runs Machine.Run whenever a hook is set), but both backends are
// architecturally identical, so the re-run reproduces the campaign's
// classification — a Replayed/Outcome mismatch in a dump is itself a
// finding.

// anomalous reports whether an outcome warrants a forensic dump.
func anomalous(o Outcome) bool { return o == OutSDC || o == OutHang }

// sampleSeed is the derived per-sample seed dumps are keyed by: the
// splitmix state newSampleRNG builds from (campaign seed, index), enough
// to replay one sample without re-deriving the whole campaign.
func sampleSeed(seed int64, index int) uint64 { return newSampleRNG(seed, index).state }

// plannedOnly strips the firing telemetry from a fault, leaving only the
// planted coordinates — the re-run must fire it afresh.
func plannedOnly(f cpu.Fault) cpu.Fault {
	return cpu.Fault{
		BranchIndex: f.BranchIndex,
		Kind:        f.Kind,
		Bit:         f.Bit,
		StepIndex:   f.StepIndex,
		Reg:         f.Reg,
	}
}

// ringHook returns a BranchHook that appends one EvBranch event per
// executed direct branch. m.Steps is synced before the hook fires, so the
// captured step counts are exact.
func ringHook(ring *obs.Ring, m *cpu.Machine) func(cpu.BranchEvent) {
	return func(ev cpu.BranchEvent) {
		detail := "fall-through"
		if ev.Taken {
			detail = "taken"
		}
		ring.Append(obs.Event{
			Kind:   obs.EvBranch,
			Step:   m.Steps,
			Addr:   ev.IP,
			Value:  int64(ev.Target),
			Detail: detail,
		})
	}
}

// faultDetail renders the planted fault for the dump.
func faultDetail(f *cpu.Fault) string {
	switch f.Kind {
	case cpu.FaultOffsetBit:
		return fmt.Sprintf("offset-bit %d at branch %d", f.Bit, f.BranchIndex)
	case cpu.FaultFlagBit:
		return fmt.Sprintf("flag-bit %d at branch %d", f.Bit, f.BranchIndex)
	default:
		return fmt.Sprintf("reg %d bit %d at step %d", f.Reg, f.Bit, f.StepIndex)
	}
}

// dumpFlight re-runs one anomalous sample from a fresh start on the
// worker's runner with the ring hook attached and dumps the forensic
// record. No-op unless cfg.Flight is set and the sample fired an
// anomalous outcome.
func dumpFlight(cfg *Config, r runner, program, label string, i int, want []int32, s *sampleResult) {
	if cfg.Flight == nil || !s.fired || !anomalous(s.rec.Outcome) {
		return
	}
	g := cfg.SampleOffset + i // dumps are keyed by the global sample index
	f := plannedOnly(s.rec.Fault)
	ring := obs.NewRing(cfg.Flight.Depth())
	m, res := r.start(&f)
	if res == nil {
		m.BranchHook = ringHook(ring, m)
		res = r.finish(m, r.advance(m, cfg.MaxSteps))
	}
	if f.Fired {
		ring.Append(obs.Event{Kind: obs.EvFaultFired, Step: f.FiredStep, Addr: f.FaultIP, Detail: faultDetail(&f)})
	}
	ring.Append(obs.Event{Kind: obs.EvStop, Step: res.Steps, Addr: res.Stop.IP, Detail: res.Stop.String()})
	cfg.Flight.Dump(obs.FlightDump{
		Sample:     g,
		SampleSeed: sampleSeed(cfg.Seed, g),
		Program:    program,
		Technique:  label,
		Outcome:    s.rec.Outcome.String(),
		Replayed:   classifyOutcome(res, want).String(),
		Fault:      faultDetail(&f),
		Stop:       res.Stop.String(),
		Dropped:    ring.Dropped(),
		Events:     ring.Events(),
	})
}
