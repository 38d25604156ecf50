// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Section 2's error-model tables and
// Section 6's performance figures) over the synthetic SPEC2000 workloads,
// plus the fault-injection coverage matrix the paper argues analytically.
//
// Every generator takes a workers knob (0 = GOMAXPROCS): the per-benchmark
// measurements fan out across a goroutine pool and are merged in benchmark
// order, so the tables are identical for every worker count. Each job owns
// its program build and its own DBT instances; nothing mutable is shared.
package bench

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dbt"
	"repro/internal/errmodel"
	"repro/internal/inject"
	"repro/internal/isa"
	"repro/internal/par"
	"repro/internal/session"
	"repro/internal/workloads"

	"repro/internal/check"
)

// DefaultMaxSteps bounds every measured run.
const DefaultMaxSteps = 2_000_000_000

// Geomean returns the geometric mean of xs.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// SlowdownRow is one benchmark's slowdowns under a set of configurations.
type SlowdownRow struct {
	Name     string
	Suite    workloads.Suite
	Slowdown []float64
}

// SlowdownTable is a per-benchmark slowdown table with suite geomeans —
// the structure of the paper's Figures 12 and 15.
type SlowdownTable struct {
	Title   string
	Configs []string
	Rows    []SlowdownRow
	GeoFp   []float64
	GeoInt  []float64
	GeoAll  []float64
}

// computeGeomeans fills the suite geometric means.
func (t *SlowdownTable) computeGeomeans() {
	n := len(t.Configs)
	t.GeoFp = make([]float64, n)
	t.GeoInt = make([]float64, n)
	t.GeoAll = make([]float64, n)
	for c := 0; c < n; c++ {
		var fp, in, all []float64
		for _, r := range t.Rows {
			all = append(all, r.Slowdown[c])
			if r.Suite == workloads.SuiteFp {
				fp = append(fp, r.Slowdown[c])
			} else {
				in = append(in, r.Slowdown[c])
			}
		}
		t.GeoFp[c] = Geomean(fp)
		t.GeoInt[c] = Geomean(in)
		t.GeoAll[c] = Geomean(all)
	}
}

// dbtCycles runs p under the translator with the given instrumentation and
// returns the cycle count (cold run: translation included, as the paper
// measures whole executions).
func dbtCycles(p *isa.Program, tech dbt.Technique, pol dbt.Policy) (uint64, error) {
	d := dbt.New(p, dbt.Options{Technique: tech, Policy: pol})
	res := d.Run(nil, DefaultMaxSteps)
	if res.Stop.Reason != cpu.StopHalt {
		return 0, fmt.Errorf("%s/%v: run ended with %v", p.Name, pol, res.Stop)
	}
	return res.Cycles, nil
}

// buildFn builds the named workload at the given scale. A nil build
// function builds privately per job (core.Workload); the bench suite
// passes session.Registry.Program instead, so each workload builds once
// and is shared across every figure (and with any warm campaign sessions
// in the same process).
type buildFn func(name string, scale float64) (*isa.Program, error)

// buildOrDefault resolves a nil build function to the private per-job
// build.
func buildOrDefault(build buildFn) buildFn {
	if build != nil {
		return build
	}
	return core.Workload
}

// slowdownTable measures one row per workload — each configuration's
// cycles (cycles(p, c) for configuration c) over the uninstrumented
// baseline — fanning the workloads across workers, and folds the suite
// geomeans. Rows come back in workload order whatever the worker count.
// onRow, when non-nil, receives each row as its job completes (from the
// worker goroutine, in completion order — callers that stream must
// serialize).
func slowdownTable(title string, configs []string, scale float64, workers int, build buildFn, onRow func(SlowdownRow), cycles func(p *isa.Program, c int) (uint64, error)) (*SlowdownTable, error) {
	profs := workloads.All()
	t := &SlowdownTable{Title: title, Configs: configs, Rows: make([]SlowdownRow, len(profs))}
	bf := buildOrDefault(build)
	err := par.ForEach(len(profs), workers, func(i int) error {
		prof := profs[i]
		p, err := bf(prof.Name, scale)
		if err != nil {
			return err
		}
		base, err := dbtCycles(p, nil, dbt.PolicyAllBB)
		if err != nil {
			return err
		}
		slow := make([]float64, len(configs))
		for c := range configs {
			n, err := cycles(p, c)
			if err != nil {
				return err
			}
			slow[c] = float64(n) / float64(base)
		}
		t.Rows[i] = SlowdownRow{Name: prof.Name, Suite: prof.Suite, Slowdown: slow}
		if onRow != nil {
			onRow(t.Rows[i])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.computeGeomeans()
	return t, nil
}

// Figure12 measures the per-benchmark slowdown of RCF, EdgCF and ECF
// (Jcc update style, ALLBB policy) relative to the uninstrumented DBT.
// build and onRow may be nil (see buildFn and slowdownTable).
func Figure12(scale float64, workers int, build buildFn, onRow func(SlowdownRow)) (*SlowdownTable, error) {
	return techniqueSlowdowns(dbt.UpdateJcc, scale, workers, build, onRow)
}

// techniqueSlowdowns is Figure 12's measurement under either update
// style.
func techniqueSlowdowns(style dbt.UpdateStyle, scale float64, workers int, build buildFn, onRow func(SlowdownRow)) (*SlowdownTable, error) {
	techs := check.DBTTechniques(style)
	names := make([]string, len(techs))
	for i, tc := range techs {
		names[i] = tc.Name()
	}
	title := fmt.Sprintf("Figure 12 - performance slowdown (%v update, ALLBB policy)", style)
	return slowdownTable(title, names, scale, workers, build, onRow, func(p *isa.Program, c int) (uint64, error) {
		return dbtCycles(p, techs[c], dbt.PolicyAllBB)
	})
}

// Figure14Table is the 2x3 geomean-slowdown table comparing the Jcc and
// CMOVcc conditional-update styles.
type Figure14Table struct {
	// Slowdown[style][technique]: styles Jcc, CMOVcc; techniques RCF,
	// EdgCF, ECF.
	Techniques []string
	Styles     []string
	Slowdown   [2][3]float64
}

// Figure14 measures geometric-mean slowdowns for both update styles: the
// Figure 12 measurement once per style. onRow, when non-nil, receives
// each row with its style's name.
func Figure14(scale float64, workers int, build buildFn, onRow func(style string, r SlowdownRow)) (*Figure14Table, error) {
	out := &Figure14Table{Styles: []string{"Jcc", "CMOVcc"}}
	for si, style := range []dbt.UpdateStyle{dbt.UpdateJcc, dbt.UpdateCmov} {
		var rowHook func(SlowdownRow)
		if onRow != nil {
			name := out.Styles[si]
			rowHook = func(r SlowdownRow) { onRow(name, r) }
		}
		t, err := techniqueSlowdowns(style, scale, workers, build, rowHook)
		if err != nil {
			return nil, err
		}
		out.Techniques = t.Configs
		copy(out.Slowdown[si][:], t.GeoAll)
	}
	return out, nil
}

// Figure15 measures the RCF technique under the four signature checking
// policies. build and onRow may be nil.
func Figure15(scale float64, workers int, build buildFn, onRow func(SlowdownRow)) (*SlowdownTable, error) {
	pols := dbt.Policies()
	names := make([]string, len(pols))
	for i, pol := range pols {
		names[i] = pol.String()
	}
	title := "Figure 15 - RCF slowdown under the checking policies"
	return slowdownTable(title, names, scale, workers, build, onRow, func(p *isa.Program, c int) (uint64, error) {
		return dbtCycles(p, &check.RCF{Style: dbt.UpdateJcc}, pols[c])
	})
}

// BaselineRow reports the translator's own overhead for one benchmark.
type BaselineRow struct {
	Name     string
	Suite    workloads.Suite
	Native   uint64
	DBT      uint64
	Overhead float64 // DBT/Native - 1
}

// DBTBaseline measures the uninstrumented translator against native
// execution (the paper reports ~12% average). build and onRow may be nil.
func DBTBaseline(scale float64, workers int, build buildFn, onRow func(BaselineRow)) ([]BaselineRow, float64, error) {
	profs := workloads.All()
	rows := make([]BaselineRow, len(profs))
	bf := buildOrDefault(build)
	err := par.ForEach(len(profs), workers, func(i int) error {
		prof := profs[i]
		p, err := bf(prof.Name, scale)
		if err != nil {
			return err
		}
		m := cpu.New()
		if stop := m.RunProgram(p, DefaultMaxSteps); stop.Reason != cpu.StopHalt {
			return fmt.Errorf("%s: native %v", p.Name, stop)
		}
		dc, err := dbtCycles(p, nil, dbt.PolicyAllBB)
		if err != nil {
			return err
		}
		rows[i] = BaselineRow{
			Name:     prof.Name,
			Suite:    prof.Suite,
			Native:   m.Cycles,
			DBT:      dc,
			Overhead: float64(dc)/float64(m.Cycles) - 1,
		}
		if onRow != nil {
			onRow(rows[i])
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	ratios := make([]float64, len(rows))
	for i, r := range rows {
		ratios[i] = float64(r.DBT) / float64(r.Native)
	}
	return rows, Geomean(ratios) - 1, nil
}

// Figure2 runs the error model over both suites, aggregating fault-site
// counts per suite (dynamic weighting, as the paper's per-suite tables).
// The per-workload analyses fan across workers; tables merge in workload
// order.
func Figure2(scale float64, workers int) (intTab, fpTab *errmodel.Table, err error) {
	profs := workloads.All()
	tabs := make([]*errmodel.Table, len(profs))
	err = par.ForEach(len(profs), workers, func(i int) error {
		p, err := profs[i].Build(scale)
		if err != nil {
			return err
		}
		t, err := errmodel.Analyze(p, DefaultMaxSteps)
		if err != nil {
			return err
		}
		tabs[i] = t
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	intTab, fpTab = &errmodel.Table{}, &errmodel.Table{}
	for i, prof := range profs {
		if prof.Suite == workloads.SuiteInt {
			intTab.Add(tabs[i])
		} else {
			fpTab.Add(tabs[i])
		}
	}
	return intTab, fpTab, nil
}

// DefaultCoverageWorkloads is the representative int+fp subset the
// coverage matrix runs when CoverageConfig.Workloads is nil.
var DefaultCoverageWorkloads = []string{"164.gzip", "181.mcf", "171.swim", "183.equake"}

// CoverageConfig parameterizes the coverage matrix experiment.
type CoverageConfig struct {
	Scale     float64
	Samples   int
	Seed      int64
	Workloads []string // nil: DefaultCoverageWorkloads
	// Sessions routes every campaign through a warm-session registry, so
	// each workload builds once and is shared across all six techniques
	// (and, when the registry persists checkpoint logs, across processes);
	// a registry with a cell cache skips cached cells entirely, and the
	// matrix text is byte-identical either way. nil uses a private
	// in-memory registry.
	Sessions *session.Registry
	// Options is the shared execution surface (Metrics, Flight, Workers,
	// CkptInterval, ...), forwarded to every campaign. The classified matrix is
	// byte-identical for every Workers and CkptInterval value; only the
	// engine-telemetry footer (executed vs short-circuited samples) reflects
	// which engine ran.
	core.Options
	// OnReport, when non-nil, receives each technique's merged report as
	// it completes — the bench suite streams the matrix row by row.
	// cached reports that every one of the technique's cells came out of
	// the graph cache.
	OnReport func(r *inject.Report, cached bool)
}

// CoverageMatrix runs fault-injection campaigns for every technique
// (including the static baselines) over the selected workloads and returns
// one merged report per technique. ctx cancels mid-matrix.
func CoverageMatrix(ctx context.Context, cfg CoverageConfig) ([]*inject.Report, error) {
	if cfg.Samples <= 0 {
		cfg.Samples = 200
	}
	names := cfg.Workloads
	if names == nil {
		names = DefaultCoverageWorkloads
	}
	reg := cfg.Sessions
	if reg == nil {
		reg = session.NewRegistry(session.Config{Metrics: cfg.Metrics})
	}
	opts := cfg.Options
	var reports []*inject.Report
	// One column per table row; CMOVcc is the safe update style.
	for _, tech := range check.Techniques {
		merged := &inject.Report{Technique: tech.Name, Program: "suite", ByCat: map[errmodel.Category]*inject.Agg{}}
		rowCached := true
		for _, n := range names {
			k := session.Key{Workload: n, Scale: cfg.Scale, Technique: tech.Name, Style: "CMOVcc"}
			r, cached, err := reg.RunCell(ctx, k, session.Spec{Samples: cfg.Samples, Seed: cfg.Seed}, opts)
			if err != nil {
				return nil, err
			}
			rowCached = rowCached && cached
			merged.Add(r)
			merged.Elapsed += r.Elapsed
		}
		reports = append(reports, merged)
		if cfg.OnReport != nil {
			cfg.OnReport(merged, rowCached)
		}
	}
	return reports, nil
}
