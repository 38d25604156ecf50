package inject_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/check"
	"repro/internal/dbt"
	"repro/internal/inject"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/workloads"
)

// The work gate: fixed seeded checkpoint-engine campaigns on the fleet
// benchmark's three bulk shapes and two interactive shapes, compared with
// the committed baseline in testdata/work_baseline.json. Work counters are
// host-independent and exact, so unlike wall-clock numbers they can be
// gated on a plain `go test`: a change that makes any shape execute more
// guest steps, execute more samples, short-circuit, settle or rejoin
// fewer, compile more blocks or leave more steps to the interpreter
// fails here. A change that does less work lowers the baseline in
// the same change; the test logs the measured values to paste in.

// workShape is one gated campaign configuration.
type workShape struct {
	name      string
	workload  string
	technique string // a check.New name, or "CFCSS" for the static baseline
	style     dbt.UpdateStyle
	policy    dbt.Policy
	samples   int
}

var workShapes = []workShape{
	{"bulk 164.gzip RCF/Jcc/ALLBB", "164.gzip", "RCF", dbt.UpdateJcc, dbt.PolicyAllBB, 300},
	{"bulk 171.swim EdgCF/CMOVcc/RET-BE", "171.swim", "EdgCF", dbt.UpdateCmov, dbt.PolicyRetBE, 300},
	{"bulk 181.mcf CFCSS/ALLBB", "181.mcf", "CFCSS", 0, dbt.PolicyAllBB, 300},
	{"interactive 197.parser RCF/Jcc/RET-BE", "197.parser", "RCF", dbt.UpdateJcc, dbt.PolicyRetBE, 40},
	{"interactive 176.gcc ECF/CMOVcc/END", "176.gcc", "ECF", dbt.UpdateCmov, dbt.PolicyEnd, 300},
}

// workCounts is one shape's measured work.
type workCounts struct {
	ExecutedSteps  uint64 `json:"executed_steps"`
	Executed       int    `json:"executed"`
	ShortCircuited int    `json:"short_circuited"`
	// Settled counts the samples settled at their firing from the site
	// table, without a restore: the short-circuited ones and the traps.
	Settled        int    `json:"settled"`
	Rejoined       int    `json:"rejoined"`
	CompiledBlocks uint64 `json:"compiled_blocks"`
	// InterpretedSteps counts the steps the compiled backend left to the
	// reference interpreter.
	InterpretedSteps uint64 `json:"interpreted_steps"`
}

// campaign builds the shape's program (at the benchmark's scale 0.05)
// and returns it with the shape's checkpoint-engine campaign, which the
// options run.
func (s workShape) campaign(t *testing.T) (*isa.Program, inject.Config, []inject.ExecOption) {
	t.Helper()
	prof, err := workloads.ByName(s.workload)
	if err != nil {
		t.Fatal(err)
	}
	p, err := prof.Build(0.05)
	if err != nil {
		t.Fatal(err)
	}
	cfg := inject.Config{
		Policy:  s.policy,
		Samples: s.samples,
		Seed:    7,
		Options: inject.Options{Workers: 2, CkptInterval: -1},
	}
	if s.technique == "CFCSS" {
		ip, err := check.InstrumentStatic(p, check.StaticCFCSS)
		if err != nil {
			t.Fatal(err)
		}
		return ip, cfg, []inject.ExecOption{inject.AsStatic(s.technique)}
	}
	if cfg.Technique, err = check.New(s.technique, s.style); err != nil {
		t.Fatal(err)
	}
	return p, cfg, nil
}

// measureWork runs one shape's campaign and reads its work counters.
func measureWork(t *testing.T, s workShape) workCounts {
	t.Helper()
	p, cfg, opts := s.campaign(t)
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	rep, err := inject.Execute(context.Background(), p, cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	label := `{technique="` + rep.Technique + `"}`
	h, ok := snap.Histograms["ckpt_replayed_steps"+label]
	if !ok {
		t.Fatalf("%s: no ckpt_replayed_steps histogram", s.name)
	}
	return workCounts{
		ExecutedSteps:    h.Sum,
		Executed:         rep.Executed,
		ShortCircuited:   rep.ShortOffset + rep.ShortLive,
		Settled:          rep.ShortOffset + rep.ShortLive + int(snap.Counters["ckpt_settled_traps_total"+label]),
		Rejoined:         rep.Rejoined,
		CompiledBlocks:   rep.Compiled.BlocksCompiled,
		InterpretedSteps: rep.Compiled.InterpretedSteps,
	}
}

func TestWorkGate(t *testing.T) {
	if testing.Short() {
		t.Skip("work gate runs five campaigns")
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "work_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	var baseline map[string]workCounts
	if err := json.Unmarshal(raw, &baseline); err != nil {
		t.Fatal(err)
	}
	measured := map[string]workCounts{}
	lower := false
	for _, s := range workShapes {
		got := measureWork(t, s)
		measured[s.name] = got
		want, ok := baseline[s.name]
		if !ok {
			t.Errorf("%s: no baseline entry", s.name)
			continue
		}
		if got.ExecutedSteps > want.ExecutedSteps || got.Executed > want.Executed ||
			got.ShortCircuited < want.ShortCircuited || got.Settled < want.Settled || got.Rejoined < want.Rejoined ||
			got.CompiledBlocks > want.CompiledBlocks || got.InterpretedSteps > want.InterpretedSteps {
			t.Errorf("%s: more work than the baseline\n got: %+v\nwant: %+v", s.name, got, want)
		}
		lower = lower || got != want
	}
	if lower || t.Failed() {
		out, _ := json.MarshalIndent(measured, "", "  ")
		t.Logf("measured work (testdata/work_baseline.json takes it when lower):\n%s", out)
	}
}
