package inject

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/ckpt"
	"repro/internal/comp"
	"repro/internal/cpu"
	"repro/internal/dbt"
	"repro/internal/errmodel"
	"repro/internal/isa"
	"repro/internal/obs"
)

// ExecOption configures Prepare, Restore and Execute: what kind of warm
// state a campaign starts from.
type ExecOption func(*Prepared)

// AsStatic runs the campaign natively (no translator) under the given
// report label — the statically instrumented CFCSS/ECCA baselines and
// unprotected native runs. Native runs inject branch faults only and host
// no translator transform, so a Config.Technique or Body is refused at
// warm-up and Config.RegFaults by every campaign.
func AsStatic(label string) ExecOption {
	return func(w *Prepared) { w.static, w.label = true, label }
}

// Prepared is the warm state campaigns over one program start from, built
// once and shared read-only by any number of concurrent campaigns: a
// stabilized translator snapshot, or under AsStatic the native warm state
// (see warmNative). It also holds the clean run's length and, once
// recorded or restored, the reference log the checkpoint engine resumes
// samples from. A campaign on it is byte-identical to a cold Execute of
// the same configuration: the state only changes where the time goes.
type Prepared struct {
	prog       *isa.Program
	static     bool
	label      string
	policy     dbt.Policy
	metrics    *obs.Registry // Prepare's cfg.Metrics, for Record's count
	cleanSteps uint64
	log        *ckpt.Log // nil until Record, or Restore's

	snap *dbt.Snapshot // a translated state

	// A native state: the block starts its clean run entered (in address
	// order), the CFG's block starts, and the engine frozen over the
	// former, nil until a compiled campaign asks.
	starts  []uint32
	blocks  errmodel.Blocks
	engOnce sync.Once
	eng     *comp.Engine
}

// newPrepared applies opts and checks that cfg's warm-up inputs fit the
// selected kind of state.
func newPrepared(p *isa.Program, cfg *Config, opts []ExecOption) (*Prepared, error) {
	cfg.applyDefaults()
	w := &Prepared{prog: p, label: techName(cfg.Technique), policy: cfg.Policy, metrics: cfg.Metrics}
	for _, o := range opts {
		o(w)
	}
	if w.static && (cfg.Technique != nil || cfg.Body != nil) {
		return nil, fmt.Errorf("inject: AsStatic runs no translator technique or body transform")
	}
	return w, nil
}

// Prepare warms p for campaigns on cfg's backend: it translates and
// stabilizes p under cfg's technique, policy and body (Warm), or under
// AsStatic performs the clean native run. cfg.Metrics receives the warm
// phase span and Record's recording count.
func Prepare(p *isa.Program, cfg Config, opts ...ExecOption) (*Prepared, error) {
	w, err := newPrepared(p, &cfg, opts)
	if err != nil {
		return nil, err
	}
	warm := phaseSpan(cfg.Metrics, w.label, "warm")
	defer warm.End()
	var clean *dbt.Result
	if w.static {
		clean, err = w.warmNative(cfg)
	} else {
		w.snap, clean, err = Warm(p, cfg)
	}
	if err != nil {
		return nil, err
	}
	w.cleanSteps = clean.Steps
	return w, nil
}

// Restore rebuilds the state Prepare(p, cfg, opts...) builds from a
// published artifact's pieces: the snapshot image (nil under AsStatic),
// the clean run's length and a complete reference log. A translated
// state translates nothing. A native state is not shipped: one clean run
// rebuilds it from the code and must reproduce cleanSteps. Any shortfall
// is an error, so a bad artifact never yields a state.
func Restore(p *isa.Program, cfg Config, st *dbt.SnapshotState, cleanSteps uint64, log *ckpt.Log, opts ...ExecOption) (*Prepared, error) {
	w, err := newPrepared(p, &cfg, opts)
	switch {
	case err != nil:
		return nil, err
	case cleanSteps == 0 || log == nil || !log.Complete() || w.static != (st == nil):
		return nil, fmt.Errorf("inject: %s: artifact pieces do not fit the state", p.Name)
	case w.static:
		var clean *dbt.Result
		if clean, err = w.warmNative(cfg); err == nil && clean.Steps != cleanSteps {
			err = fmt.Errorf("inject: %s: clean run of %d steps, artifact %d", p.Name, clean.Steps, cleanSteps)
		}
	default:
		w.snap, err = dbt.RestoreSnapshot(p, dbt.Options{
			Technique: cfg.Technique, Policy: cfg.Policy, Body: cfg.Body, Backend: cfg.Backend,
		}, st)
	}
	if err != nil {
		return nil, err
	}
	w.cleanSteps, w.log = cleanSteps, log
	return w, nil
}

// CleanSteps is the clean run's length, from which the checkpoint spacing
// derives (ckpt.AutoInterval).
func (w *Prepared) CleanSteps() uint64 { return w.cleanSteps }

// Log is the held reference log: nil until Record, or Restore's.
func (w *Prepared) Log() *ckpt.Log { return w.log }

// Static reports whether the state runs natively (AsStatic).
func (w *Prepared) Static() bool { return w.static }

// State exports the snapshot's portable image for the artifact tier: nil
// for a native state, which one clean run rebuilds (see Restore).
func (w *Prepared) State() (*dbt.SnapshotState, error) {
	if w.static {
		return nil, nil
	}
	return w.snap.State()
}

// Record performs the checkpointed clean reference run, capturing a point
// every interval steps, and keeps the log for every later campaign on the
// checkpoint engine. It counts one recording on Prepare's metrics. It is
// not safe concurrently with Run: record before sharing the state.
func (w *Prepared) Record(interval, maxSteps uint64) (*ckpt.Log, error) {
	log, err := w.record(interval, maxSteps)
	if err != nil {
		return nil, err
	}
	publishRecording(w.metrics, w.label)
	w.log = log
	return log, nil
}

// record performs the reference run on a snapshot clone, or natively on
// an engine that captures at the block starts the clean run reached (the
// points a sample's compiled view can see), and requires it to halt.
func (w *Prepared) record(interval, maxSteps uint64) (*ckpt.Log, error) {
	var log *ckpt.Log
	var err error
	if w.static {
		log, err = ckpt.RecordStatic(w.prog, w.starts, interval, maxSteps)
	} else {
		log, err = ckpt.Record(w.snap, interval, maxSteps)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %v", w.prog.Name, err)
	}
	if log.Stop.Reason != cpu.StopHalt {
		return nil, fmt.Errorf("%s: clean run ended with %v", w.prog.Name, log.Stop)
	}
	return log, nil
}

// target is the state as a campaign on backend b sees it. A step campaign
// on a compiled-warm snapshot clones it without the compiled view and
// credits no compiled baseline, as one on a step-warm snapshot does.
func (w *Prepared) target(b comp.Backend) target {
	switch {
	case !w.static:
		return snapTarget{snap: w.snap, backend: b}
	case b.Compiled():
		return &nativeTarget{warm: w, eng: w.engine()}
	}
	return &nativeTarget{warm: w}
}

// Execute is the cold campaign entry point, Prepare then Run: it injects
// cfg.Samples faults into executions of p and classifies every outcome,
// honoring ctx for cancellation; AsStatic selects native execution.
// Classified results are a pure function of (program, cfg minus Workers)
// — worker count, engine and backend only change where the time goes.
func Execute(ctx context.Context, p *isa.Program, cfg Config, opts ...ExecOption) (*Report, error) {
	w, err := Prepare(p, cfg, opts...)
	if err != nil {
		return nil, err
	}
	return w.Run(ctx, cfg)
}
