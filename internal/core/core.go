// Package core is the library facade: one import that ties the guest ISA,
// assembler, native machine, dynamic binary translator, checking
// techniques, error model, fault injector and workload suite together
// behind a small string-configured API. The cmd/ tools and examples/ are
// thin wrappers over this package.
package core

import (
	"context"
	"fmt"
	"strings"

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

// Options is the shared execution surface (Trace, Metrics, Workers,
// CkptInterval) that the CLIs bind once via internal/cli and every
// campaign entry point embeds. It is an alias of inject.Options — core
// re-exports it so facade users never import internal/inject directly.
type Options = inject.Options

// Config selects a protection configuration by name, as the CLIs expose it.
type Config struct {
	// Technique: "none", "EdgCF", "RCF" or "ECF".
	Technique string
	// Style: "Jcc" (default) or "CMOVcc".
	Style string
	// Policy: "ALLBB" (default), "RET-BE", "RET" or "END".
	Policy string
	// SampleOffset shifts injection campaigns onto the global sample range
	// [SampleOffset, SampleOffset+samples) — one shard of a split campaign
	// (see inject.Config.SampleOffset).
	SampleOffset int
	// Options is the shared execution surface (Trace, Metrics, Workers,
	// CkptInterval), promoted so existing selector access keeps working.
	Options
}

// ParseStyle resolves an update-style name.
func ParseStyle(s string) (dbt.UpdateStyle, error) {
	switch strings.ToLower(s) {
	case "", "jcc":
		return dbt.UpdateJcc, nil
	case "cmov", "cmovcc":
		return dbt.UpdateCmov, nil
	}
	return 0, fmt.Errorf("unknown update style %q (want Jcc or CMOVcc)", s)
}

// ParsePolicy resolves a checking-policy name.
func ParsePolicy(s string) (dbt.Policy, error) {
	switch strings.ToUpper(s) {
	case "", "ALLBB":
		return dbt.PolicyAllBB, nil
	case "RET-BE", "RETBE":
		return dbt.PolicyRetBE, nil
	case "RET":
		return dbt.PolicyRet, nil
	case "END":
		return dbt.PolicyEnd, nil
	}
	return 0, fmt.Errorf("unknown policy %q (want ALLBB, RET-BE, RET or END)", s)
}

// Resolve materializes the configuration.
func (c Config) Resolve() (dbt.Technique, dbt.Policy, error) {
	style, err := ParseStyle(c.Style)
	if err != nil {
		return nil, 0, err
	}
	tech, err := check.New(c.Technique, style)
	if err != nil {
		return nil, 0, err
	}
	pol, err := ParsePolicy(c.Policy)
	if err != nil {
		return nil, 0, err
	}
	return tech, pol, nil
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

// NewDBT prepares a translator for p under the given configuration.
func NewDBT(p *isa.Program, c Config) (*dbt.DBT, error) {
	tech, pol, err := c.Resolve()
	if err != nil {
		return nil, err
	}
	return dbt.New(p, dbt.Options{Technique: tech, Policy: pol, Trace: c.Trace}), nil
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

// Inject runs a randomized single-fault campaign under the DBT. workers
// shards the samples across goroutines (0 means GOMAXPROCS, overriding
// c.Options.Workers); the report is bit-identical for every worker count.
// It is InjectCtx with a background context — kept one release for
// compatibility; new code calls InjectCtx.
func Inject(p *isa.Program, c Config, samples int, seed int64, workers int) (*inject.Report, error) {
	c.Workers = workers
	return InjectCtx(context.Background(), p, c, samples, seed)
}

// InjectCtx runs a randomized single-fault campaign under the DBT,
// honoring ctx for cancellation. Execution knobs (Workers, CkptInterval,
// Trace, Metrics) come from c.Options; the report is bit-identical for
// every worker count.
func InjectCtx(ctx context.Context, p *isa.Program, c Config, samples int, seed int64) (*inject.Report, error) {
	tech, pol, err := c.Resolve()
	if err != nil {
		return nil, err
	}
	icfg := inject.Config{
		Technique: tech, Policy: pol, Samples: samples, Seed: seed,
		SampleOffset: c.SampleOffset,
		Options:      c.Options,
	}
	return inject.Execute(ctx, p, icfg)
}

// VerifyScheme model-checks a technique's signature algebra against the
// paper's sufficient and necessary conditions on a representative graph
// (Section 4). Valid names: EdgCF, RCF, ECF, CFCSS, ECCA.
func VerifyScheme(name string) (sig.Result, error) {
	return VerifySchemeObs(name, nil, nil)
}

// VerifySchemeObs is VerifyScheme with observability: per-check-evaluation
// events on tr and explored-state/check-verdict counters on reg (both may
// be nil).
func VerifySchemeObs(name string, tr *obs.Tracer, reg *obs.Registry) (sig.Result, error) {
	g := &sig.Graph{Succs: [][]sig.BlockID{{1}, {2}, {1, 3}, {0, 4}, {}}}
	var scheme sig.Scheme
	switch strings.ToLower(name) {
	case "edgcf":
		scheme = sig.EdgCF{}
	case "rcf":
		scheme = sig.RCF{}
	case "ecf":
		scheme = sig.ECF{}
	case "cfcss":
		scheme = sig.NewCFCSS(g)
	case "ecca":
		scheme = sig.NewECCA(g)
	default:
		return sig.Result{}, fmt.Errorf("unknown scheme %q", name)
	}
	return sig.VerifyObs(g, scheme, tr, reg), nil
}
