package comp

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/workloads"
)

// outcome captures everything the backends must agree on.
type outcome struct {
	stop   cpu.Stop
	regs   [isa.NumRegs]int32
	flags  isa.Flags
	ip     uint32
	steps  uint64
	cycles uint64
	direct uint64
	indir  uint64
	sig    uint64
	output []int32
}

func capture(m *cpu.Machine, stop cpu.Stop) outcome {
	return outcome{
		stop: stop, regs: m.Regs, flags: m.Flags, ip: m.IP,
		steps: m.Steps, cycles: m.Cycles, direct: m.DirectBranches,
		indir: m.IndirectBranches, sig: m.SigChecks, output: m.Output,
	}
}

const testMaxSteps = uint64(1) << 62

// TestCompiledMatchesStepOnWorkloads runs every workload under the step
// oracle (Machine.Run) and the compiled backend, requires each to halt, and
// requires identical outcomes down to the full output stream.
func TestCompiledMatchesStepOnWorkloads(t *testing.T) {
	for _, prof := range workloads.All() {
		p, err := prof.Build(0.05)
		if err != nil {
			t.Fatalf("%s: build: %v", prof.Name, err)
		}
		eng := NewEngine(p.Code, nil, 0)
		arms := []struct {
			name string
			run  func(m *cpu.Machine) cpu.Stop
		}{
			{"step", func(m *cpu.Machine) cpu.Stop { return m.Run(p.Code, testMaxSteps) }},
			{"compile", func(m *cpu.Machine) cpu.Stop { return eng.Run(m, p.Code, testMaxSteps) }},
		}
		var want outcome
		for i, arm := range arms {
			m := cpu.New()
			m.Reset(p)
			got := capture(m, arm.run(m))
			if got.stop.Reason != cpu.StopHalt {
				t.Errorf("%s: %s run ended with %v, want halt", prof.Name, arm.name, got.stop)
			}
			if i == 0 {
				want = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %s outcome differs from step\n got: %+v\nwant: %+v", prof.Name, arm.name, got, want)
			}
		}
	}
}

// TestCompiledThroughput reports the compiled backend's speedup over the
// step oracle on 164.gzip; informational only (skipped under -short).
func TestCompiledThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	prof, err := workloads.ByName("164.gzip")
	if err != nil {
		t.Fatal(err)
	}
	p, err := prof.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	best := func(run func() outcome) (float64, outcome) {
		sec := 0.0
		var out outcome
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			out = run()
			s := time.Since(start).Seconds()
			if rep == 0 || s < sec {
				sec = s
			}
		}
		return sec, out
	}

	stepSec, stepOut := best(func() outcome {
		m := cpu.New()
		m.Reset(p)
		return capture(m, m.Run(p.Code, testMaxSteps))
	})
	compSec, compOut := best(func() outcome {
		eng := NewEngine(p.Code, nil, 0)
		m := cpu.New()
		m.Reset(p)
		return capture(m, eng.Run(m, p.Code, testMaxSteps))
	})
	if !reflect.DeepEqual(stepOut, compOut) {
		t.Fatalf("outcome mismatch\n got: %+v\nwant: %+v", compOut, stepOut)
	}
	t.Logf("steps=%d step=%.4fs compiled=%.4fs speedup=%.2fx",
		stepOut.steps, stepSec, compSec, stepSec/compSec)
}

func benchProgram(b *testing.B) *isa.Program {
	prof, err := workloads.ByName("164.gzip")
	if err != nil {
		b.Fatal(err)
	}
	p, err := prof.Build(1)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func BenchmarkStep(b *testing.B) {
	p := benchProgram(b)
	for i := 0; i < b.N; i++ {
		m := cpu.New()
		m.Reset(p)
		m.Run(p.Code, testMaxSteps)
	}
}

func BenchmarkCompiled(b *testing.B) {
	p := benchProgram(b)
	eng := NewEngine(p.Code, nil, 0)
	for i := 0; i < b.N; i++ {
		m := cpu.New()
		m.Reset(p)
		eng.Run(m, p.Code, testMaxSteps)
	}
}
