package comp

import (
	"reflect"
	"testing"

	"repro/internal/cpu"
	"repro/internal/workloads"
)

// TestFrozenEngineDropsHeat freezes a fresh engine over the starts an
// adaptive run compiled. The frozen core holds no heat table (it never
// promotes), and its clones still match Machine.Run exactly: clean, and under
// a planted branch fault that can leave the frozen set for cold blocks.
func TestFrozenEngineDropsHeat(t *testing.T) {
	prof, err := workloads.ByName("164.gzip")
	if err != nil {
		t.Fatal(err)
	}
	p, err := prof.Build(0.05)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewEngine(p.Code, nil, 0)
	m := cpu.New()
	m.Reset(p)
	if stop := warm.Run(m, p.Code, testMaxSteps); stop.Reason != cpu.StopHalt {
		t.Fatalf("warm run ended with %v", stop)
	}
	starts := warm.Reached()
	if uint64(len(starts)) < warm.Stats.BlocksCompiled {
		t.Fatalf("Reached() = %d starts, fewer than the %d blocks the run compiled", len(starts), warm.Stats.BlocksCompiled)
	}

	eng := NewEngine(p.Code, nil, 0)
	eng.Freeze(starts)
	if eng.c.heat != nil {
		t.Fatalf("frozen engine keeps a heat table of %d entries", len(eng.c.heat))
	}
	if eng.Stats.BlocksCompiled < warm.Stats.BlocksCompiled || eng.Stats.BlocksCompiled > uint64(len(starts)) {
		t.Errorf("freeze compiled %d blocks, want between %d and %d", eng.Stats.BlocksCompiled, warm.Stats.BlocksCompiled, len(starts))
	}
	if eng.Reached() != nil {
		t.Error("a frozen engine reports reached starts")
	}

	for _, fault := range []func() *cpu.Fault{
		func() *cpu.Fault { return nil },
		func() *cpu.Fault { return &cpu.Fault{Kind: cpu.FaultOffsetBit, BranchIndex: 500, Bit: 3} },
		func() *cpu.Fault { return &cpu.Fault{Kind: cpu.FaultFlagBit, BranchIndex: 900, Bit: 0} },
	} {
		ref := cpu.New()
		ref.Reset(p)
		ref.Fault = fault()
		want := capture(ref, ref.Run(p.Code, testMaxSteps))

		v := eng.Clone()
		got := cpu.New()
		got.Reset(p)
		got.Fault = fault()
		if g := capture(got, v.Run(got, p.Code, testMaxSteps)); !reflect.DeepEqual(g, want) {
			t.Errorf("fault %+v: frozen clone differs from Run\n got: %+v\nwant: %+v", fault(), g, want)
		}
		if v.Stats.ChainHits == 0 {
			t.Errorf("fault %+v: frozen clone took no chain slot", fault())
		}
	}
}

// TestFrozenViewColdTier freezes an engine over no starts at all: every
// block is cold, so a clone promotes the hot ones into its private cold
// tier and still matches Machine.Run exactly. The shared core gains nothing,
// and a fresh clone starts cold again.
func TestFrozenViewColdTier(t *testing.T) {
	prof, err := workloads.ByName("181.mcf")
	if err != nil {
		t.Fatal(err)
	}
	p, err := prof.Build(0.02)
	if err != nil {
		t.Fatal(err)
	}
	ref := cpu.New()
	ref.Reset(p)
	want := capture(ref, ref.Run(p.Code, testMaxSteps))

	eng := NewEngine(p.Code, nil, 0)
	eng.Freeze(nil)
	var compiled uint64
	for i := 0; i < 2; i++ {
		v := eng.Clone()
		m := cpu.New()
		m.Reset(p)
		if got := capture(m, v.Run(m, p.Code, testMaxSteps)); !reflect.DeepEqual(got, want) {
			t.Fatalf("clone %d differs from Run\n got: %+v\nwant: %+v", i, got, want)
		}
		if v.Stats.BlocksCompiled == 0 || len(v.coldBlocks) == 0 {
			t.Fatalf("clone %d promoted no cold block", i)
		}
		if i == 1 && v.Stats.BlocksCompiled != compiled {
			t.Errorf("second clone compiled %d cold blocks, first %d", v.Stats.BlocksCompiled, compiled)
		}
		compiled = v.Stats.BlocksCompiled
	}
	if len(eng.c.blocks) != 0 || eng.Stats.BlocksCompiled != 0 {
		t.Errorf("cold promotions leaked into the shared core: %d blocks", len(eng.c.blocks))
	}
}
