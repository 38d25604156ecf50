package inject

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/cfg"
	"repro/internal/ckpt"
	"repro/internal/comp"
	"repro/internal/cpu"
	"repro/internal/dbt"
	"repro/internal/isa"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/par"
)

// The checkpoint-and-resume engine. One instrumented clean run records
// periodic checkpoints (ckpt.Record); every sample then restores the
// nearest checkpoint at or before its fault site and executes only the
// tail, turning a campaign of N samples over a clean run of S steps from
// O(N·S) into O(N·interval + S). Three properties keep the reports
// byte-identical to full replay:
//
//   - Restores are exact. A checkpoint captures the machine at a step
//     boundary of a run whose translator deltas are non-structural, so a
//     restored machine on a fresh snapshot clone is bit-for-bit the
//     machine that executed the whole prefix (dbt.Stats.Structural).
//   - Fault sites are monotone counters. A branch fault fires when the
//     direct-branch counter reaches its index and a register fault when
//     the step counter does; restoring at a point whose counters have not
//     passed the index replays the firing exactly.
//   - Clean tails are synthesized, never guessed. Two fault families are
//     provably on the reference trajectory after firing and short-circuit
//     to the recorded finals. (1) A fired offset-bit fault whose branch was
//     not taken in either direction: the corrupted immediate is use-once
//     and unused. (2) A fired flag/register-bit fault whose flipped bit is
//     dead at its site (internal/live): a flag flip that left the branch
//     direction unchanged and whose bit is redefined before any read along
//     every path from the resume address, or a register flip whose victim
//     is redefined before any read from the fault site on. Every other
//     fault runs its tail. The replay engine never short-circuits — it is
//     the ground truth the checkpoint reports are diffed against.

// sitePoint returns the checkpoint a fault restores from: the last point
// whose firing counter has not yet reached the fault's site.
func sitePoint(l *ckpt.Log, f *cpu.Fault) int {
	if f.Kind == cpu.FaultRegBit {
		return l.PointAtStep(f.StepIndex)
	}
	return l.PointAtBranch(f.BranchIndex)
}

// orderBySite returns sample indices sorted by restore point (ties in
// sample order). Workers take every workers-th entry of the result, so
// each worker visits its checkpoints in ascending order and its replayer
// applies every page delta at most once.
func orderBySite(points []int) []int {
	order := make([]int, len(points))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if points[order[a]] != points[order[b]] {
			return points[order[a]] < points[order[b]]
		}
		return order[a] < order[b]
	})
	return order
}

// shortKind classifies how a sample's tail was resolved.
type shortKind uint8

const (
	// shortNone: the tail was executed.
	shortNone shortKind = iota
	// shortOffset: not-taken offset-bit fault, tail synthesized.
	shortOffset
	// shortLive: dead flag/register bit (liveness prune), tail synthesized.
	shortLive
)

// shortCircuitKind reports whether the fired fault provably cannot change
// anything after its firing step, so that the reference finals are the
// sample's result. Three rules, all requiring a complete reference
// recording to synthesize from:
//
//   - Offset bits: the flipped bit lived in a branch immediate consumed
//     exactly once, by a branch that fell through in both the clean and
//     the faulted direction.
//   - Flag bits: the flip left the branch direction unchanged, and the
//     bit is dead at the resume address — every path redefines it before
//     any Jcc/cmov/pushf reads it, so the lingering flip in the flags
//     register can never be observed.
//   - Register bits: the victim register is dead at the fault site —
//     every path redefines it before any read — so the flip is
//     overwritten before it can influence anything.
//
// li may be nil (liveness unavailable), which disables the latter two.
func shortCircuitKind(l *ckpt.Log, f *cpu.Fault, li *live.Info) shortKind {
	if !l.Complete() || !f.Fired {
		return shortNone
	}
	switch f.Kind {
	case cpu.FaultOffsetBit:
		if !f.CleanTaken && !f.FaultTaken {
			return shortOffset
		}
	case cpu.FaultFlagBit:
		if li == nil || f.FaultTaken != f.CleanTaken {
			return shortNone
		}
		// The branch itself already consumed the flags; deadness is judged
		// where execution resumes.
		next := f.FaultIP + 1
		if f.CleanTaken {
			next = f.CleanTarget
		}
		if li.FlagBitDead(next, f.Bit%isa.NumFlagBits) {
			return shortLive
		}
	case cpu.FaultRegBit:
		// The fault fires before the instruction at FaultIP executes, so
		// deadness is judged at the fault site itself.
		if li != nil && li.RegDead(f.FaultIP, f.Reg%isa.Reg(isa.NumRegs)) {
			return shortLive
		}
	}
	return shortNone
}

// runCkptSamples is the checkpoint engine for translated campaigns. The
// recording run doubles as the clean reference. A non-nil log is a
// pre-recorded reference (a session-cache hit); nil records one here.
func runCkptSamples(ctx context.Context, p *isa.Program, cfg *Config, rep *Report, snap *dbt.Snapshot,
	tech string, shards []*obs.Collector, results []sampleResult, cleanSteps uint64, log *ckpt.Log) error {
	start := time.Now()
	if log == nil {
		record := phaseSpan(cfg.Metrics, tech, "record")
		interval := ckpt.AutoInterval(cfg.CkptInterval, cleanSteps)
		var err error
		log, err = ckpt.Record(snap, interval, cfg.MaxSteps)
		record.End()
		if err != nil {
			return fmt.Errorf("%s: %v", p.Name, err)
		}
		PublishRecording(cfg.Metrics, tech)
	}
	if log.Stop.Reason != cpu.StopHalt {
		return fmt.Errorf("%s: clean run ended with %v", p.Name, log.Stop)
	}
	want := log.Output
	branches := log.Final.DirectBranches
	steps := log.Final.Steps
	if branches == 0 {
		return fmt.Errorf("%s: no branches to fault", p.Name)
	}
	publishLog(cfg.Metrics, tech, log)

	// Faults derive per index exactly as under replay; only the execution
	// order changes, and results land in their own index slot.
	faults := make([]*cpu.Fault, cfg.Samples)
	points := make([]int, cfg.Samples)
	for i := range faults {
		faults[i] = deriveFault(cfg, i, branches, steps)
		points[i] = sitePoint(log, faults[i])
	}
	order := orderBySite(points)
	base := snap.Stats()
	// Liveness over the snapshot cache powers the dead-bit prune; the
	// analysis is shared read-only by every worker.
	prune := phaseSpan(cfg.Metrics, tech, "prune")
	li := snap.Liveness()
	prune.End()
	workers := rep.Workers
	injSpan := phaseSpan(cfg.Metrics, tech, "inject")
	err := par.RunWorkersCtx(ctx, workers, func(ctx context.Context, w int) error {
		ws := injSpan.Child(fmt.Sprintf("worker%d", w))
		defer ws.End()
		var c *obs.Collector
		if shards != nil {
			c = shards[w]
		}
		r := log.NewReplayer()
		for j := w; j < len(order); j += workers {
			if err := ctx.Err(); err != nil {
				return err
			}
			i := order[j]
			runCkptSample(cfg, snap, base, log, r, li, tech, c, faults[i], points[i], cfg.SampleOffset+i, want, &results[i])
			dumpFlightDBT(cfg, snap, p.Name, tech, i, want, &results[i])
			observeProgress(cfg.Progress, w, &results[i])
		}
		return nil
	})
	injSpan.End()
	rep.Elapsed = time.Since(start)
	return err
}

// runCkptSample classifies one fault from a checkpoint restore.
func runCkptSample(cfg *Config, snap *dbt.Snapshot, base dbt.Stats, log *ckpt.Log,
	r *ckpt.Replayer, li *live.Info, tech string, c *obs.Collector,
	f *cpu.Fault, k, sample int, want []int32, out *sampleResult) {
	sd := snap.NewDBT()
	m := r.Machine(k)
	m.Fault = f
	pt := &log.Points[k]
	sd.Resume(m, pt.Prefix)
	restored := pt.State.Steps

	// Execute the tail in interval-sized chunks until the fault fires,
	// then run the rest in one go — or synthesize it when the firing
	// provably left the run on the reference trajectory.
	stop := cpu.Stop{Reason: cpu.StopOutOfSteps}
	short := shortNone
	for stop.Reason == cpu.StopOutOfSteps && m.Steps < cfg.MaxSteps {
		if f.Fired {
			if short = shortCircuitKind(log, f, li); short == shortNone {
				stop = sd.Advance(m, cfg.MaxSteps)
			}
			break
		}
		target := m.Steps + log.Interval
		if target > cfg.MaxSteps {
			target = cfg.MaxSteps
		}
		stop = sd.Advance(m, target)
	}

	// Either way the sample's compiled-backend work is whatever its clone
	// actually executed (synthesized tails run no blocks).
	out.comp = sd.CompStats()

	if short != shortNone {
		observeRestore(c, tech, restored, m.Steps-restored, short)
		out.stats = log.FinalPrefix
		rec := Record{
			Sample:   sample,
			Fault:    *f,
			Outcome:  OutBenign,
			Category: classifyCategory(sd, f),
		}
		if c != nil {
			observeSample(c, tech, &rec, log.Final.SigChecks, log.CacheSize)
		}
		out.fired = true
		out.rec = rec
		out.short = short
		return
	}

	res := sd.Finish(m, stop)
	observeRestore(c, tech, restored, res.Steps-restored, shortNone)
	out.stats = res.Stats.Sub(base)
	if !f.Fired {
		if c != nil {
			observeNotFired(c, tech)
		}
		return
	}
	rec := Record{
		Sample:   sample,
		Fault:    *f,
		Outcome:  classifyOutcome(res, want),
		Category: classifyCategory(sd, f),
	}
	if rec.Outcome == OutDetectedSW || rec.Outcome == OutDetectedHW {
		rec.Latency = res.Steps - f.FiredStep
		if cfg.Trace != nil {
			cfg.Trace.Emit(obs.Event{
				Kind: obs.EvErrorDetected, Sample: obs.SampleRef(sample),
				Value:  int64(rec.Latency),
				Detail: rec.Outcome.String() + "/" + rec.Category.String(),
			})
		}
	}
	if c != nil {
		observeSample(c, tech, &rec, res.SigChecks, res.CacheSize)
	}
	out.fired = true
	out.rec = rec
}

// runStaticCkptSamples is the checkpoint engine for native (no
// translator) campaigns: same restore/sort/short-circuit discipline, but
// the machine runs guest code directly and there is no translator state
// to credit or protect.
func runStaticCkptSamples(ctx context.Context, p *isa.Program, g *cfg.Graph, se *staticExec, cfgn *Config, rep *Report,
	label string, shards []*obs.Collector, results []sampleResult, cleanSteps uint64, log *ckpt.Log) error {
	start := time.Now()
	if log == nil {
		record := phaseSpan(cfgn.Metrics, label, "record")
		interval := ckpt.AutoInterval(cfgn.CkptInterval, cleanSteps)
		var err error
		log, err = ckpt.RecordStatic(p, interval, cfgn.MaxSteps)
		record.End()
		if err != nil {
			return fmt.Errorf("%s: %v", p.Name, err)
		}
		PublishRecording(cfgn.Metrics, label)
	}
	if log.Stop.Reason != cpu.StopHalt {
		return fmt.Errorf("%s: clean run ended with %v", p.Name, log.Stop)
	}
	publishLog(cfgn.Metrics, label, log)
	want := log.Output
	branches := log.Final.DirectBranches

	faults := make([]*cpu.Fault, cfgn.Samples)
	points := make([]int, cfgn.Samples)
	for i := range faults {
		rng := newSampleRNG(cfgn.Seed, cfgn.SampleOffset+i)
		faults[i] = deriveBranchFault(&rng, branches)
		points[i] = sitePoint(log, faults[i])
	}
	order := orderBySite(points)
	// The program is fixed for native runs, so the shared plan, the frozen
	// compiled engine and one liveness analysis serve every worker
	// read-only (samples take per-view engine clones).
	prune := phaseSpan(cfgn.Metrics, label, "prune")
	li := live.Analyze(g)
	prune.End()
	workers := rep.Workers
	injSpan := phaseSpan(cfgn.Metrics, label, "inject")
	err := par.RunWorkersCtx(ctx, workers, func(ctx context.Context, w int) error {
		ws := injSpan.Child(fmt.Sprintf("worker%d", w))
		defer ws.End()
		var c *obs.Collector
		if shards != nil {
			c = shards[w]
		}
		r := log.NewReplayer()
		for j := w; j < len(order); j += workers {
			if err := ctx.Err(); err != nil {
				return err
			}
			i := order[j]
			f := faults[i]
			m := r.Machine(points[i])
			m.Fault = f
			restored := m.Steps
			v := se.view()

			stop := cpu.Stop{Reason: cpu.StopOutOfSteps}
			short := shortNone
			for stop.Reason == cpu.StopOutOfSteps && m.Steps < cfgn.MaxSteps {
				if f.Fired {
					if short = shortCircuitKind(log, f, li); short == shortNone {
						stop = comp.Run(se.backend, v, m, &se.plan, cfgn.MaxSteps)
					}
					break
				}
				target := m.Steps + log.Interval
				if target > cfgn.MaxSteps {
					target = cfgn.MaxSteps
				}
				stop = comp.Run(se.backend, v, m, &se.plan, target)
			}

			cst := se.stats(v)
			results[i].comp = cst
			observeRestore(c, label, restored, m.Steps-restored, short)
			if short != shortNone {
				rec := Record{
					Sample:   cfgn.SampleOffset + i,
					Fault:    *f,
					Outcome:  OutBenign,
					Category: classifyStaticCategory(g, f),
				}
				if c != nil {
					observeSample(c, label, &rec, log.Final.SigChecks, 0)
				}
				results[i] = sampleResult{fired: true, rec: rec, short: short, comp: cst}
				observeProgress(cfgn.Progress, w, &results[i])
				continue
			}
			cpu.TraceRunOutcome(cfgn.Trace, m, stop)
			if !f.Fired {
				if c != nil {
					observeNotFired(c, label)
				}
				observeProgress(cfgn.Progress, w, &results[i])
				continue
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
			if c != nil {
				observeSample(c, label, &rec, m.SigChecks, 0)
			}
			results[i] = sampleResult{fired: true, rec: rec, comp: cst}
			dumpFlightStatic(cfgn, p, label, i, want, &results[i])
			observeProgress(cfgn.Progress, w, &results[i])
		}
		return nil
	})
	injSpan.End()
	rep.Elapsed = time.Since(start)
	return err
}

// PublishRecording counts one reference-run recording (as opposed to a
// cache hit that reused a persisted log). The session server's CI smoke
// asserts this counter stays flat across a warm-cache restart.
func PublishRecording(reg *obs.Registry, technique string) {
	if reg == nil {
		return
	}
	reg.Counter(seriesName("ckpt_recordings_total", technique)).Add(1)
}

// publishLog records the reference recording's footprint: how many points
// were captured and how much memory the state and page deltas occupy.
func publishLog(reg *obs.Registry, technique string, l *ckpt.Log) {
	if reg == nil {
		return
	}
	reg.Counter(seriesName("ckpt_points_total", technique)).Add(uint64(len(l.Points)))
	reg.Counter(seriesName("ckpt_bytes_total", technique)).Add(l.Bytes)
}

// observeRestore folds one restore into a worker's shard: the steps the
// checkpoint skipped versus the steps actually executed (the engine's
// amortization ratio), plus the short-circuit counts.
// ckpt_shortcircuits_total counts every synthesized tail regardless of
// family; ckpt_live_pruned_total additionally counts the liveness family.
func observeRestore(c *obs.Collector, technique string, restored, replayed uint64, short shortKind) {
	if c == nil {
		return
	}
	c.Add(seriesName("ckpt_restores_total", technique), 1)
	if short != shortNone {
		c.Add(seriesName("ckpt_shortcircuits_total", technique), 1)
	}
	if short == shortLive {
		c.Add(seriesName("ckpt_live_pruned_total", technique), 1)
	}
	c.Observe(seriesName("ckpt_restored_steps", technique), obs.DefaultLatencyBuckets, restored)
	c.Observe(seriesName("ckpt_replayed_steps", technique), obs.DefaultLatencyBuckets, replayed)
}
