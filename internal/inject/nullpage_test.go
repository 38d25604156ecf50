package inject

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/comp"
	"repro/internal/cpu"
	"repro/internal/dbt"
	"repro/internal/isa"
	"repro/internal/workloads"
)

// TestCkptNullPageMatchesReplay runs the fleet benchmark's native bulk
// shape, 181.mcf under CFCSS, whose faults often return through a stack
// word holding 0 (a callee's saved copy of a register main never sets).
// Address 0 is the null page, so such a sample traps at once instead of
// restarting the program.
// At the auto interval and a coarse one, and at 1, 2 and 4 workers, the
// checkpoint engine's reports must equal the replay engine's, and its
// telemetry (executed, short-circuited, rejoined) must not depend on the
// worker count: every sample is resolved on its own.
func TestCkptNullPageMatchesReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 800 samples of 181.mcf")
	}
	base := nullPageWorkload(t)
	p, err := check.InstrumentStatic(base, check.StaticCFCSS)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Prepare(p, Config{}, AsStatic("CFCSS"))
	if err != nil {
		t.Fatal(err)
	}
	c := Config{Samples: 800, Seed: 7, KeepRecords: true, Options: Options{Workers: 2}}
	replay, err := warm.Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	type telemetry struct{ executed, offset, live, rejoined int }
	clean := warm.CleanSteps()
	for _, iv := range []int64{-1, int64(clean / 4)} {
		if _, err := warm.Record(ckpt.AutoInterval(iv, clean), DefaultMaxSteps); err != nil {
			t.Fatal(err)
		}
		var first telemetry
		for i, w := range []int{1, 2, 4} {
			cfg := c
			cfg.Workers, cfg.CkptInterval = w, iv
			rep, err := warm.Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(reportKey(rep), reportKey(replay)) {
				t.Errorf("interval %d, %d workers: report differs from replay", iv, w)
			}
			got := telemetry{rep.Executed, rep.ShortOffset, rep.ShortLive, rep.Rejoined}
			t.Logf("interval %d, %d workers: %+v", iv, w, got)
			if i == 0 {
				first = got
			} else if got != first {
				t.Errorf("interval %d: %d workers resolve the samples as %+v, 1 worker as %+v", iv, w, got, first)
			}
		}
	}
}

// TestNullPageReturnTrapsEverywhere pins the null page on every engine: a
// sample whose run returns to address 0 ends detected-hw, on a native
// target (181.mcf under static CFCSS) and a translated one (181.mcf under
// the translator, unchecked), under the step oracle and the compiled
// backend, and under the replay and checkpoint engines. Which samples do
// so is found by single-stepping each sample on the step oracle up to the
// return, so the test does not lean on the rule it checks.
func TestNullPageReturnTrapsEverywhere(t *testing.T) {
	if testing.Short() {
		t.Skip("single-steps 300 samples of 181.mcf twice")
	}
	base := nullPageWorkload(t)
	static, err := check.InstrumentStatic(base, check.StaticCFCSS)
	if err != nil {
		t.Fatal(err)
	}
	c := Config{Samples: 300, Seed: 7, KeepRecords: true, Options: Options{Workers: 2}}
	cfg := c
	cfg.Backend = comp.BackendStep

	m := cpu.New()
	m.Reset(static)
	if stop := m.Run(static.Code, DefaultMaxSteps); stop.Reason != cpu.StopHalt {
		t.Fatalf("clean run: %v", stop)
	}
	clean := &dbt.Result{Steps: m.Steps, DirectBranches: m.DirectBranches}
	native := zeroReturns(&cfg, clean, func(f *cpu.Fault) (*cpu.Machine, func() isa.Instr, func() bool) {
		m := cpu.New()
		m.Reset(static)
		m.Fault = f
		at := func() isa.Instr {
			if m.IP < static.Len() {
				return static.Code[m.IP]
			}
			return isa.Instr{}
		}
		step := func() bool { _, done := m.Step(static.Code); return !done }
		return m, at, step
	}, func(in isa.Instr) bool { return in.Op == isa.OpRet })

	snap, _, err := Warm(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := snap.NewDBT().Run(nil, DefaultMaxSteps)
	translated := zeroReturns(&cfg, ref, func(f *cpu.Fault) (*cpu.Machine, func() isa.Instr, func() bool) {
		d := snap.NewDBT()
		m, res := d.Start(f)
		if res != nil {
			t.Fatalf("start: %v", res.Stop)
		}
		at := func() isa.Instr { return d.CacheInstr(m.IP) }
		step := func() bool { return d.Advance(m, m.Steps+1).Reason == cpu.StopOutOfSteps }
		return m, at, step
	}, func(in isa.Instr) bool { return in.Op == isa.OpPop && in.RD == isa.RegSCR })

	t.Logf("returns to address 0: %d native, %d translated of %d samples",
		len(native), len(translated), c.Samples)
	if len(native) == 0 || len(translated) == 0 {
		t.Fatalf("no sample returns to address 0 (%d native, %d translated)", len(native), len(translated))
	}
	for _, b := range []comp.Backend{comp.BackendStep, comp.BackendAuto} {
		for _, iv := range []int64{0, -1} {
			cfg := c
			cfg.Backend, cfg.CkptInterval = b, iv
			nat, err := Execute(context.Background(), static, cfg, AsStatic("CFCSS"))
			if err != nil {
				t.Fatal(err)
			}
			tr, err := Execute(context.Background(), base, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []struct {
				name    string
				rep     *Report
				samples []int
			}{{"native", nat, native}, {"translated", tr, translated}} {
				for _, i := range r.samples {
					if rec := r.rep.Records[i]; rec.Outcome != OutDetectedHW {
						t.Errorf("%s, backend %v, interval %d: sample %d returns to address 0 and ends %v, want detected-hw",
							r.name, b, iv, i, rec.Outcome)
					}
				}
			}
		}
	}
}

// nullPageWorkload is the fleet benchmark's native bulk program: 181.mcf
// at scale 0.05.
func nullPageWorkload(t *testing.T) *isa.Program {
	t.Helper()
	prof, err := workloads.ByName("181.mcf")
	if err != nil {
		t.Fatal(err)
	}
	p, err := prof.Build(0.05)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// zeroReturns single-steps each sample of cfg, derived over the clean
// run's geometry, on the machine begin plants its fault in, and returns
// the samples that execute a return (isRet, judged on the instruction at
// the IP) popping the address 0. It stops a sample there, or once the
// fault has been live for a few thousand steps: such a return follows its
// fault closely.
func zeroReturns(cfg *Config, clean *dbt.Result,
	begin func(f *cpu.Fault) (m *cpu.Machine, at func() isa.Instr, step func() bool),
	isRet func(isa.Instr) bool) []int {
	var hits []int
	for i := 0; i < cfg.Samples; i++ {
		f := deriveFault(cfg, i, clean.DirectBranches, clean.Steps)
		m, at, step := begin(&f)
		for !f.Fired || m.Steps < f.FiredStep+5000 {
			if f.Fired && isRet(at()) {
				if v, err := m.Mem.Load(uint32(m.Regs[isa.ESP])); err == nil && v == 0 {
					hits = append(hits, i)
					break
				}
			}
			if !step() {
				break
			}
		}
	}
	return hits
}
