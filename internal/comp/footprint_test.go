package comp_test

import (
	"testing"

	"repro/internal/check"
	"repro/internal/comp"
	"repro/internal/cpu"
	"repro/internal/workloads"
)

// TestFrozenTableFootprint freezes an engine over the starts a clean run
// of 197.parser/CFCSS reaches, as a native session keeps one. Its
// by-address table must retain pages for those few blocks only, not 8
// bytes per code word.
func TestFrozenTableFootprint(t *testing.T) {
	prof, err := workloads.ByName("197.parser")
	if err != nil {
		t.Fatal(err)
	}
	base, err := prof.Build(0.05)
	if err != nil {
		t.Fatal(err)
	}
	p, err := check.InstrumentStatic(base, check.StaticCFCSS)
	if err != nil {
		t.Fatal(err)
	}
	warm := comp.NewEngine(p.Code, nil, 0)
	m := cpu.New()
	m.Reset(p)
	if stop := warm.Run(m, p.Code, 50_000_000); stop.Reason != cpu.StopHalt {
		t.Fatalf("clean run: %v", stop)
	}
	starts := warm.Reached()
	eng := comp.NewEngine(p.Code, nil, 0)
	eng.Freeze(starts)
	const bound = 64 << 10
	got := eng.TableBytes()
	t.Logf("%d reached starts over %d code words: table retains %d bytes", len(starts), len(p.Code), got)
	if got > bound {
		t.Errorf("frozen table retains %d bytes for %d starts, want <= %d", got, len(starts), bound)
	}
}
