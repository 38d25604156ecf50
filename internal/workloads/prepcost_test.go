package workloads_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/check"
	"repro/internal/fp"
	"repro/internal/isa"
	"repro/internal/workloads"
)

// The program preparation cost gate: every session build and artifact
// restore generates its programs, digests them and, for CFCSS and ECCA,
// instruments them statically. TestProgramPrepCost measures what five
// such calls allocate against testdata/prep_cost.json, with
// prepHeadroom. A change that lowers a call's cost lowers the baseline
// in the same change; the test logs the measured values to paste in.

// prepHeadroom is the allowed rise, in percent, of mallocs and bytes.
const prepHeadroom = 10

// prepCost is one call's allocations.
type prepCost struct {
	Mallocs uint64 `json:"mallocs"`
	Bytes   uint64 `json:"bytes"`
}

// prepCalls are the gated calls, each on programs built beforehand.
func prepCalls(t *testing.T) map[string]func() {
	t.Helper()
	build := func(name string) (workloads.Profile, *isa.Program) {
		prof, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return prof, prof.MustBuild(0.05)
	}
	gzip, gzipProg := build("164.gzip")
	gcc, _ := build("176.gcc")
	_, mcf := build("181.mcf")
	_, parser := build("197.parser")
	instrument := func(p *isa.Program, kind check.StaticKind) func() {
		return func() {
			if _, err := check.InstrumentStatic(p, kind); err != nil {
				t.Fatal(err)
			}
		}
	}
	return map[string]func(){
		"build 164.gzip@0.05":              func() { gzip.MustBuild(0.05) },
		"build 176.gcc@0.05":               func() { gcc.MustBuild(0.05) },
		"InstrumentStatic 181.mcf CFCSS":   instrument(mcf, check.StaticCFCSS),
		"InstrumentStatic 197.parser ECCA": instrument(parser, check.StaticECCA),
		"fp.Program 164.gzip@0.05":         func() { fp.Program(gzipProg) },
	}
}

// measurePrep returns the mean allocations of three calls after a
// warm-up call.
func measurePrep(call func()) prepCost {
	call()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 3; i++ {
		call()
	}
	runtime.ReadMemStats(&after)
	return prepCost{
		Mallocs: (after.Mallocs - before.Mallocs) / 3,
		Bytes:   (after.TotalAlloc - before.TotalAlloc) / 3,
	}
}

func TestProgramPrepCost(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	// Measure as the request cost gate does: one P, no collection.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	raw, err := os.ReadFile(filepath.Join("testdata", "prep_cost.json"))
	if err != nil {
		t.Fatal(err)
	}
	var baseline map[string]prepCost
	if err := json.Unmarshal(raw, &baseline); err != nil {
		t.Fatal(err)
	}
	measured := map[string]prepCost{}
	for name, call := range prepCalls(t) {
		got := measurePrep(call)
		measured[name] = got
		want, ok := baseline[name]
		switch {
		case !ok:
			t.Errorf("%s: no baseline entry", name)
		case got.Mallocs > want.Mallocs+want.Mallocs*prepHeadroom/100,
			got.Bytes > want.Bytes+want.Bytes*prepHeadroom/100:
			t.Errorf("%s: allocates more than the baseline allows (+%d%%)\n got: %+v\nwant: %+v",
				name, prepHeadroom, got, want)
		}
	}
	out, _ := json.MarshalIndent(measured, "", "  ")
	t.Logf("measured cost per call (testdata/prep_cost.json takes it when lower):\n%s", out)
}
