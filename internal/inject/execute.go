package inject

import (
	"context"
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/dbt"
	"repro/internal/isa"
)

// execPlan collects the optional execution inputs of Execute.
type execPlan struct {
	static     bool
	label      string
	snap       *dbt.Snapshot
	native     *Native
	cleanSteps uint64
	haveSnap   bool
	log        *ckpt.Log
}

// ExecOption configures one Execute call: what pre-built state the
// campaign starts from.
type ExecOption func(*execPlan)

// WithSnapshot runs the campaign against a pre-built warm translator
// snapshot (from Warm, or restored from a fetched artifact) and the
// clean reference run's step count, instead of warming a fresh
// translator. Warm-up is deterministic, so the report is byte-identical
// to a cold run of the same configuration.
func WithSnapshot(snap *dbt.Snapshot, cleanSteps uint64) ExecOption {
	return func(e *execPlan) { e.snap, e.cleanSteps, e.haveSnap = snap, cleanSteps, true }
}

// WithRecording supplies a pre-recorded checkpoint log of the clean
// reference run, so the checkpoint engine skips its recording phase. The
// log is ignored when the replay engine is selected (CkptInterval 0);
// nil records one on demand.
func WithRecording(log *ckpt.Log) ExecOption {
	return func(e *execPlan) { e.log = log }
}

// WithNative runs an AsStatic campaign from a pre-built native warm state
// (from WarmNative over the same program) instead of performing a fresh
// clean run. Like WithSnapshot it changes only where the time goes: the
// report is byte-identical to a cold native run.
func WithNative(n *Native) ExecOption {
	return func(e *execPlan) { e.native = n }
}

// AsStatic runs the campaign natively (no translator) under the given
// report label — the statically instrumented CFCSS/ECCA baselines and
// unprotected native runs. Native runs inject branch faults only and host
// no translator transform, so Execute rejects AsStatic combined with
// WithSnapshot, Config.RegFaults, a Technique or a Body, and WithNative
// without AsStatic.
func AsStatic(label string) ExecOption {
	return func(e *execPlan) { e.static, e.label = true, label }
}

// Execute is the single campaign entry point: it injects cfg.Samples
// faults into executions of p and classifies every outcome, honoring ctx
// for cancellation. With no options it warms a translator and runs the
// full pipeline; WithSnapshot/WithRecording start from pre-built warm
// state (the session registry's amortization path) and AsStatic selects
// native execution, from WithNative's warm state or a fresh WarmNative.
// Classified results are a pure function of (program, cfg minus Workers)
// — worker count, engine and pre-built state only change where the time
// goes.
func Execute(ctx context.Context, p *isa.Program, cfg Config, opts ...ExecOption) (*Report, error) {
	var plan execPlan
	for _, o := range opts {
		o(&plan)
	}
	cfg.applyDefaults()
	if plan.static {
		switch {
		case plan.haveSnap:
			return nil, fmt.Errorf("inject: AsStatic is incompatible with WithSnapshot")
		case cfg.RegFaults:
			return nil, fmt.Errorf("inject: AsStatic cannot inject register faults")
		case cfg.Technique != nil, cfg.Body != nil:
			return nil, fmt.Errorf("inject: AsStatic runs no translator technique or body transform")
		case plan.native != nil && plan.native.prog != p:
			return nil, fmt.Errorf("inject: WithNative state was warmed on %s, not this %s", plan.native.prog.Name, p.Name)
		}
		warm := phaseSpan(cfg.Metrics, plan.label, "warm")
		n := plan.native
		if n == nil {
			var err error
			if n, _, err = WarmNative(p, cfg); err != nil {
				warm.End()
				return nil, err
			}
		}
		t := newNativeTarget(n, cfg.Backend)
		warm.End()
		return cfg.run(ctx, p, plan.label, t, n.cleanSteps, plan.log)
	}
	if plan.native != nil {
		return nil, fmt.Errorf("inject: WithNative requires AsStatic")
	}
	if !plan.haveSnap {
		warm := phaseSpan(cfg.Metrics, techName(cfg.Technique), "warm")
		snap, clean, err := Warm(p, cfg)
		warm.End()
		if err != nil {
			return nil, err
		}
		plan.snap, plan.cleanSteps = snap, clean.Steps
	}
	return cfg.run(ctx, p, techName(cfg.Technique), snapTarget{plan.snap}, plan.cleanSteps, plan.log)
}
