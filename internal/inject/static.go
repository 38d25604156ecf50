package inject

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cfg"
	"repro/internal/ckpt"
	"repro/internal/comp"
	"repro/internal/cpu"
	"repro/internal/errmodel"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/par"
)

// staticExec is the execution surface for native (no translator) sample
// runs: the guest code, its shared predecoded plan, and — for the compiled
// backend — a frozen block-compiled engine whose entry points are the
// program's own CFG block starts. The plan and the frozen core are shared
// read-only by every worker; each sample takes a fresh per-view clone so
// its chain-hit counters merge worker-invariantly.
type staticExec struct {
	backend comp.Backend
	plan    cpu.Plan
	eng     *comp.Engine // frozen; nil for interpreter backends
}

func newStaticExec(p *isa.Program, g *cfg.Graph, backend comp.Backend) *staticExec {
	se := &staticExec{backend: backend, plan: cpu.NewPlan(p.Code, nil)}
	if backend.Compiled() {
		se.eng = comp.NewEngine(p.Code, nil, 0)
		starts := make([]uint32, len(g.Blocks))
		for i, b := range g.Blocks {
			starts[i] = b.Start
		}
		se.eng.Freeze(starts)
	}
	return se
}

// baseline is the one-time compilation work (the freeze), credited to the
// campaign report the way snapshot warm-up work is for translated runs.
func (se *staticExec) baseline() comp.Stats {
	if se.eng == nil {
		return comp.Stats{}
	}
	return se.eng.Stats
}

// view returns a per-sample engine view (nil for interpreter backends).
func (se *staticExec) view() *comp.Engine {
	if se.eng == nil {
		return nil
	}
	return se.eng.Clone()
}

// stats returns the view's accumulated per-sample work.
func (se *staticExec) stats(v *comp.Engine) comp.Stats {
	if v == nil {
		return comp.Stats{}
	}
	return v.Stats
}

// StaticCampaign injects single faults into a program executed directly on
// the machine (no translator). It is Execute with AsStatic and a
// background context — the pre-batch-API surface, kept for compatibility;
// new code calls Execute.
func StaticCampaign(p *isa.Program, label string, cfgn Config) (*Report, error) {
	return Execute(context.Background(), p, cfgn, AsStatic(label))
}

// RunStatic injects single faults into a program executed directly on the
// machine (no translator). It is Execute with AsStatic — a compatibility
// wrapper; new code calls Execute.
func (cfgn Config) RunStatic(ctx context.Context, p *isa.Program, label string) (*Report, error) {
	return Execute(ctx, p, cfgn, AsStatic(label))
}

// RunStaticWarm is RunStatic with an optional pre-recorded checkpoint log.
// It is Execute with AsStatic and WithRecording — a compatibility wrapper;
// new code calls Execute.
func (cfgn Config) RunStaticWarm(ctx context.Context, p *isa.Program, label string, log *ckpt.Log) (*Report, error) {
	return Execute(ctx, p, cfgn, AsStatic(label), WithRecording(log))
}

// runStaticWarm injects single faults into a program executed directly on
// the machine (no translator) — the statically instrumented CFCSS/ECCA
// baselines and unprotected native runs. Faulty branch targets are
// classified against the program's own CFG. An optional pre-recorded
// checkpoint log of the native clean reference run skips the reference
// execution entirely (native execution is deterministic, so a cached
// log's finals are the clean run); nil records one when the checkpoint
// engine is selected, and the log is ignored otherwise.
//
// Like the translated pipeline, samples shard across cfgn.Workers
// goroutines with per-index fault derivation, so the classified results
// are bit-identical for every worker count. Native runs share nothing
// mutable — each sample gets its own machine; the CFG is read-only after
// Build. The caller (Execute) has applied the config defaults.
func (cfgn Config) runStaticWarm(ctx context.Context, p *isa.Program, label string, log *ckpt.Log) (*Report, error) {
	g := cfg.Build(p)

	var want []int32
	var branches, cleanSteps uint64
	if log != nil && cfgn.CkptInterval != 0 {
		want = log.Output
		branches = log.Final.DirectBranches
		cleanSteps = log.Final.Steps
	} else {
		log = nil // a cached log is meaningless to the replay engine
		record := phaseSpan(cfgn.Metrics, label, "record")
		clean := cpu.New()
		clean.Reset(p)
		cleanPlan := cpu.NewPlan(p.Code, nil)
		stop := clean.RunPlan(&cleanPlan, cfgn.MaxSteps)
		record.End()
		if stop.Reason != cpu.StopHalt {
			return nil, fmt.Errorf("%s: clean run ended with %v", p.Name, stop)
		}
		want = append([]int32(nil), clean.Output...)
		branches = clean.DirectBranches
		cleanSteps = clean.Steps
	}
	if branches == 0 {
		return nil, fmt.Errorf("%s: no branches to fault", p.Name)
	}

	rep := &Report{
		Program:      p.Name,
		Technique:    label,
		Policy:       cfgn.Policy,
		Samples:      cfgn.Samples,
		SampleOffset: cfgn.SampleOffset,
		ByCat:        map[errmodel.Category]*Agg{},
		Workers:      par.Workers(cfgn.Workers, cfgn.Samples),
	}
	cfgn.Trace.Emit(obs.Event{Kind: obs.EvCampaignStart, Detail: p.Name + "/" + label})
	cfgn.Progress.Begin(cfgn.Samples, rep.Workers, progressLabels())
	shards := newShards(cfgn.Metrics, rep.Workers)
	results := make([]sampleResult, cfgn.Samples)
	se := newStaticExec(p, g, cfgn.Backend)
	rep.Compiled = se.baseline()
	rep.WarmCompiled = rep.Compiled
	if cfgn.CkptInterval != 0 {
		// Checkpoint engine: the native recording run doubles as the clean
		// reference (native execution is trivially deterministic, so its
		// geometry matches the clean run above exactly).
		if err := runStaticCkptSamples(ctx, p, g, se, &cfgn, rep, label, shards, results, cleanSteps, log); err != nil {
			return nil, err
		}
		mg := phaseSpan(cfgn.Metrics, label, "merge")
		rep.merge(results, cfgn.KeepRecords)
		flushShards(shards, cfgn.Metrics)
		mg.End()
		rep.Compiled.Publish(cfgn.Metrics, label)
		cfgn.Trace.Emit(obs.Event{Kind: obs.EvCampaignEnd, Value: int64(cfgn.Samples), Detail: p.Name + "/" + label})
		return rep, nil
	}
	start := time.Now()
	injSpan := phaseSpan(cfgn.Metrics, label, "inject")
	err := par.ForEachShardCtx(ctx, cfgn.Samples, rep.Workers, func(w, i int) error {
		defer observeProgress(cfgn.Progress, w, &results[i])
		defer dumpFlightStatic(&cfgn, p, label, i, want, &results[i])
		rng := newSampleRNG(cfgn.Seed, cfgn.SampleOffset+i)
		f := deriveBranchFault(&rng, branches)
		m := cpu.New()
		m.Reset(p)
		m.Fault = f
		v := se.view()
		stop := comp.Run(se.backend, v, m, &se.plan, cfgn.MaxSteps)
		results[i].comp = se.stats(v)
		cpu.TraceRunOutcome(cfgn.Trace, m, stop)
		if !f.Fired {
			if shards != nil {
				observeNotFired(shards[w], label)
			}
			return nil
		}
		rec := Record{
			Sample:   cfgn.SampleOffset + i,
			Fault:    *f,
			Outcome:  classifyStaticOutcome(stop, m.Output, want),
			Category: classifyStaticCategory(g, f),
		}
		if rec.Outcome == OutDetectedSW || rec.Outcome == OutDetectedHW {
			rec.Latency = m.Steps - f.FiredStep
			cfgn.Trace.Emit(obs.Event{
				Kind: obs.EvErrorDetected, Sample: obs.SampleRef(cfgn.SampleOffset + i),
				Value:  int64(rec.Latency),
				Detail: rec.Outcome.String() + "/" + rec.Category.String(),
			})
		}
		if shards != nil {
			observeSample(shards[w], label, &rec, m.SigChecks, 0)
		}
		results[i].fired = true
		results[i].rec = rec
		return nil
	})
	injSpan.End()
	rep.Elapsed = time.Since(start)
	if err != nil {
		return nil, err
	}
	mg := phaseSpan(cfgn.Metrics, label, "merge")
	rep.merge(results, cfgn.KeepRecords)
	flushShards(shards, cfgn.Metrics)
	mg.End()
	rep.Compiled.Publish(cfgn.Metrics, label)
	cfgn.Trace.Emit(obs.Event{Kind: obs.EvCampaignEnd, Value: int64(cfgn.Samples), Detail: p.Name + "/" + label})
	return rep, nil
}

func classifyStaticOutcome(stop cpu.Stop, out, want []int32) Outcome {
	switch {
	case stop.Reason == cpu.StopReport:
		return OutDetectedSW
	case stop.Reason.IsHardwareTrap():
		return OutDetectedHW
	case stop.Reason == cpu.StopOutOfSteps:
		return OutHang
	case stop.Reason == cpu.StopHalt:
		if equalOutput(out, want) {
			return OutBenign
		}
		return OutSDC
	default:
		return OutHang
	}
}

func classifyStaticCategory(g *cfg.Graph, f *cpu.Fault) errmodel.Category {
	if f.Kind == cpu.FaultFlagBit {
		if f.FaultTaken != f.CleanTaken {
			return errmodel.CatA
		}
		return errmodel.CatNoError
	}
	if !f.CleanTaken {
		return errmodel.CatNoError
	}
	return errmodel.Classify(g, f.FaultIP, f.FaultTarget)
}
