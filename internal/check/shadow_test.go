package check

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
)

// TestShadowRelevantSetDecidesTail is the tail memo's exactness property
// on random structured programs, plain and under CFCSS: two landing states
// at the same IP that agree on the relevant set R cpu.Shadow reports for
// one of them produce equal stops, counter deltas and output words. Each
// program lands at several steps of its clean run, once at the IP it
// reached and once restarted at the program entry over the same state
// (the restart a return through an unwritten stack word causes). The
// second landing keeps R's values and draws every other register, the
// flags and every other memory word at random.
func TestShadowRelevantSetDecidesTail(t *testing.T) {
	checked := 0
	for i := 0; i < 8; i++ {
		prof := randomProfile(int64(11000 + i*37))
		prof.Name = fmt.Sprintf("shadow-%d", i)
		base, err := prof.Build(0.02)
		if err != nil {
			t.Fatal(err)
		}
		cfcss, err := InstrumentStatic(base, StaticCFCSS)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []*isa.Program{base, cfcss} {
			m := cpu.New()
			if stop := m.RunProgram(p, 50_000_000); stop.Reason != cpu.StopHalt {
				t.Fatalf("%s: clean run %v", p.Name, stop)
			}
			clean := m.Steps
			budget := 4*clean + 1000
			rng := rand.New(rand.NewSource(int64(i)))
			for k := uint64(1); k <= 6; k++ {
				for _, restart := range []bool{false, true} {
					at := clean * k / 7
					a := landing(p, at, restart)
					var sh cpu.Shadow
					sh.Begin(a)
					stopA, done := sh.Run(a, p.Code, budget)
					rel, ok := sh.Relevant(nil)
					if !done || !ok {
						continue
					}
					b := landing(p, at, restart)
					perturb(b, rel, rng)
					stopB := b.Run(p.Code, budget)
					name := fmt.Sprintf("%s landing at step %d (restart %v, |R| %d of %d sources)",
						p.Name, at, restart, len(rel), len(sh.Sources()))
					if stopA != stopB || a.Steps != b.Steps || a.Cycles != b.Cycles ||
						a.DirectBranches != b.DirectBranches || a.IndirectBranches != b.IndirectBranches ||
						a.SigChecks != b.SigChecks || !slices.Equal(a.Output, b.Output) {
						t.Errorf("%s: tails differ\n  R holds: %v, %d steps, %d outputs\n perturbed: %v, %d steps, %d outputs",
							name, stopA, a.Steps, len(a.Output), stopB, b.Steps, len(b.Output))
					}
					checked++
				}
			}
		}
	}
	if checked < 100 {
		t.Errorf("only %d landings kept tracking; the property is barely exercised", checked)
	}
}

// landing returns p's clean run stopped after step steps, moved to the
// program entry when restart is set.
func landing(p *isa.Program, step uint64, restart bool) *cpu.Machine {
	m := cpu.New()
	m.Reset(p)
	m.Run(p.Code, step)
	if restart {
		m.IP = p.Entry
	}
	return m
}

// perturb draws every location of m outside rel at random, keeping the
// values rel holds.
func perturb(m *cpu.Machine, rel []cpu.Loc, rng *rand.Rand) {
	keep := map[cpu.Loc]bool{}
	for _, l := range rel {
		keep[cpu.Loc{Kind: l.Kind, Index: l.Index}] = true
	}
	for r := range m.Regs {
		if !keep[cpu.Loc{Kind: cpu.LocReg, Index: uint32(r)}] {
			m.Regs[r] = rng.Int31()
		}
	}
	if !keep[cpu.Loc{Kind: cpu.LocFlags}] {
		m.Flags = isa.Flags(rng.Int31()) & isa.FlagMask
	}
	words := make([]int32, m.Mem.Size())
	for a := range words {
		if keep[cpu.Loc{Kind: cpu.LocMem, Index: uint32(a)}] {
			words[a], _ = m.Mem.Load(uint32(a))
		} else {
			words[a] = rng.Int31()
		}
	}
	m.Mem.WriteClean(0, words)
}
