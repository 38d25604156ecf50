// Package core is the library facade: one import that ties the guest ISA,
// assembler, native machine, dynamic binary translator, checking
// techniques, error model, fault injector and workload suite together
// behind a small string-configured API. The cmd/ tools and examples/ are
// thin wrappers over this package.
package core

import (
	"context"
	"fmt"

	"repro/internal/asm"
	"repro/internal/comp"
	"repro/internal/cpu"
	"repro/internal/dbt"
	"repro/internal/errmodel"
	"repro/internal/inject"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/sig"
	"repro/internal/workloads"

	"repro/internal/check"
)

// Options is the shared execution surface (Metrics, Flight, Workers,
// CkptInterval, ...) that the CLIs bind once via internal/cli and every
// campaign entry point embeds. It is an alias of inject.Options — core
// re-exports it so facade users never import internal/inject directly.
type Options = inject.Options

// Config selects a protection configuration by name, as the CLIs expose it.
type Config struct {
	// Technique: "none" (the default), "ECF", "EdgCF" or "RCF" under the
	// translator, or the static baselines "CFCSS" and "ECCA", which run
	// natively.
	Technique string
	// Style: "Jcc" (default) or "CMOVcc"; read only by ECF, EdgCF and
	// RCF (check.Technique.ReadsStyle).
	Style string
	// Policy: "ALLBB" (default), "RET-BE", "RET" or "END". All three take
	// any letter case (check.Identify).
	Policy string
	// SampleOffset shifts injection campaigns onto the global sample range
	// [SampleOffset, SampleOffset+samples) — one shard of a split campaign
	// (see inject.Config.SampleOffset).
	SampleOffset int
	// Options is the shared execution surface (Metrics, Flight, Workers,
	// CkptInterval, ...), promoted so existing selector access keeps working.
	Options
}

// ParseStyle resolves an update-style name (check.ParseStyle).
func ParseStyle(s string) (dbt.UpdateStyle, error) { return check.ParseStyle(s) }

// ParsePolicy resolves a checking-policy name (check.ParsePolicy).
func ParsePolicy(s string) (dbt.Policy, error) { return check.ParsePolicy(s) }

// CheckCkptInterval validates the engine the CLIs and the served wire
// take: -1 (checkpoints, spaced from the clean run) or 0 (full replay).
// The spacing is derived, so an explicit one is refused.
func CheckCkptInterval(iv int64) error {
	if iv == -1 || iv == 0 {
		return nil
	}
	return fmt.Errorf("checkpoint interval %d: want -1 (auto-spaced checkpoints) or 0 (full replay)", iv)
}

// Resolve materializes the configuration: the technique's table row, its
// translator instance (nil for a static baseline) and the policy.
func (c Config) Resolve() (*check.Technique, dbt.Technique, dbt.Policy, error) {
	id, err := check.Identify(c.Technique, c.Style, c.Policy)
	if err != nil {
		return nil, nil, 0, err
	}
	if id.Row.New == nil {
		return id.Row, nil, id.Policy, nil
	}
	return id.Row, id.Row.New(id.Style), id.Policy, nil
}

// Workload builds a named SPEC2000-shaped benchmark at the given dynamic
// scale (1.0 = the full experiment size).
func Workload(name string, scale float64) (*isa.Program, error) {
	prof, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	return prof.Build(scale)
}

// WorkloadNames lists the 26 benchmark names in figure order.
func WorkloadNames() []string { return workloads.Names() }

// Assemble parses assembly text into a guest program.
func Assemble(name, src string) (*isa.Program, error) { return asm.Assemble(name, src) }

// Disassemble renders a program as assembly text.
func Disassemble(p *isa.Program) string { return asm.Disassemble(p) }

// NativeResult reports a native (no translator) run.
type NativeResult struct {
	Stop   cpu.Stop
	Cycles uint64
	Steps  uint64
	Output []int32
}

// RunNative executes a program directly on the simulated machine, on the
// compiled engine (native runs are always fault-free).
func RunNative(p *isa.Program, maxSteps uint64) *NativeResult {
	m := cpu.New()
	m.Reset(p)
	stop := comp.NewEngine(p.Code, m.Costs, 0).Run(m, p.Code, maxSteps)
	return &NativeResult{
		Stop:   stop,
		Cycles: m.Cycles,
		Steps:  m.Steps,
		Output: append([]int32(nil), m.Output...),
	}
}

// NewDBT prepares a translator for p under the given configuration. A
// static baseline is an error: it runs natively.
func NewDBT(p *isa.Program, c Config) (*dbt.DBT, error) {
	row, tech, pol, err := c.Resolve()
	if err != nil {
		return nil, err
	}
	if tech == nil {
		return nil, fmt.Errorf("%s is a static baseline and runs without the translator", row.Name)
	}
	return dbt.New(p, dbt.Options{Technique: tech, Policy: pol}), nil
}

// RunDBT translates and executes p under the given configuration.
func RunDBT(p *isa.Program, c Config, maxSteps uint64) (*dbt.Result, error) {
	d, err := NewDBT(p, c)
	if err != nil {
		return nil, err
	}
	return d.Run(nil, maxSteps), nil
}

// AnalyzeErrors runs the paper's Section 2 error model over p.
func AnalyzeErrors(p *isa.Program, maxSteps uint64) (*errmodel.Table, error) {
	return errmodel.Analyze(p, maxSteps)
}

// Target resolves c for p into what its campaigns run: the program (p,
// or for a static baseline its instrumented rewrite), the campaign
// configuration carrying the technique, policy, sample offset and
// c.Options, and the options selecting native execution for a static
// baseline. It is the one place a configuration name becomes a target:
// InjectCtx runs it cold, the session registry warms it once
// (inject.Prepare) and serves campaigns from the warm state.
func (c Config) Target(p *isa.Program) (*isa.Program, inject.Config, []inject.ExecOption, error) {
	row, tech, pol, err := c.Resolve()
	if err != nil {
		return nil, inject.Config{}, nil, err
	}
	icfg := inject.Config{Technique: tech, Policy: pol, SampleOffset: c.SampleOffset, Options: c.Options}
	if tech != nil {
		return p, icfg, nil, nil
	}
	if p, err = check.InstrumentStatic(p, row.Static); err != nil {
		return nil, inject.Config{}, nil, err
	}
	return p, icfg, []inject.ExecOption{inject.AsStatic(row.Name)}, nil
}

// InjectCtx runs a randomized single-fault campaign, under the DBT or,
// for a static baseline, natively on the instrumented program, honoring
// ctx for cancellation. Execution knobs (Workers, CkptInterval, Metrics,
// ...) come from c.Options; the report is bit-identical for every worker
// count.
func InjectCtx(ctx context.Context, p *isa.Program, c Config, samples int, seed int64) (*inject.Report, error) {
	p, icfg, opts, err := c.Target(p)
	if err != nil {
		return nil, err
	}
	icfg.Samples, icfg.Seed = samples, seed
	return inject.Execute(ctx, p, icfg, opts...)
}

// VerifyScheme model-checks a technique's signature algebra against the
// paper's sufficient and necessary conditions on a representative graph
// (Section 4), counting explored states and check verdicts on reg (which
// may be nil). Every technique but "none" has a scheme.
func VerifyScheme(name string, reg *obs.Registry) (sig.Result, error) {
	row, err := check.Lookup(name)
	if err != nil {
		return sig.Result{}, err
	}
	if row.Scheme == nil {
		return sig.Result{}, fmt.Errorf("%s has no signature scheme", row.Name)
	}
	g := &sig.Graph{Succs: [][]sig.BlockID{{1}, {2}, {1, 3}, {0, 4}, {}}}
	return sig.VerifyObs(g, row.Scheme(g), reg), nil
}
