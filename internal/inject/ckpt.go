package inject

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/ckpt"
	"repro/internal/cpu"
	"repro/internal/dbt"
	"repro/internal/errmodel"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/par"
)

// The checkpoint-and-resume engine. One instrumented clean run records
// periodic checkpoints (ckpt.Record); every sample then restores the
// nearest checkpoint at or before its fault site and executes only the
// tail, turning a campaign of N samples over a clean run of S steps from
// O(N·S) into O(N·interval + S), and a tail that rejoins the reference
// run stops there. Three properties keep the reports byte-identical to
// full replay:
//
//   - Restores are exact. A checkpoint captures the machine at a step
//     boundary of a run whose translator deltas are non-structural, so a
//     restored machine on a fresh snapshot clone is bit-for-bit the
//     machine that executed the whole prefix (dbt.Stats.Structural).
//   - Fault sites are monotone counters. A branch fault fires when the
//     direct-branch counter reaches its index and a register fault when
//     the step counter does; restoring at a point whose counters have not
//     passed the index replays the firing exactly.
//   - Clean tails are synthesized, never guessed. A fired branch fault of
//     category No Error is provably on the reference trajectory after
//     firing and short-circuits to the recorded finals: (1) an offset-bit
//     flip on a branch that fell through, whose corrupted immediate is
//     use-once and unused, or (2) a flag-bit flip that left the branch
//     direction unchanged, since the flip acts on the one branch that
//     evaluates it. Every other fault joins the trajectory later, if at
//     all: (3) a fired fault whose tail rejoins the reference run. The
//     tail runs with the compiled engine watching one later checkpoint at
//     a time on a block entry or guard continuation, and stops where its
//     IP and registers match one. There, an exact check
//     (ckpt.Replayer.Rejoins) finds flags, output and every memory word
//     equal too. For a translated run, the translator clone
//     must also have done no structural work since resume, and the
//     reference tail none at all, so the clone's cache stays the
//     reference's. From that point on the sample's run is the reference's
//     shifted by a constant counter offset, so its finals are its own
//     counters plus the reference's remaining work (Final minus the
//     point). A shifted step count past the budget keeps executing (a
//     hang). Every other fault runs its tail to the end. A return
//     through a stack word the run never wrote ends within a few steps:
//     it fetches from the null page (address 0), which traps on every
//     target. The replay engine never short-circuits — it is the ground
//     truth the checkpoint reports are diffed against.

// sitePoint returns the checkpoint a fault restores from: the last point
// whose firing counter has not yet reached the fault's site.
func sitePoint(l *ckpt.Log, f *cpu.Fault) int {
	if f.Kind == cpu.FaultRegBit {
		return l.PointAtStep(f.StepIndex)
	}
	return l.PointAtBranch(f.BranchIndex)
}

// orderBySite returns sample indices sorted by restore point (ties in
// sample order). Workers claim its entries through one shared, growing
// cursor, so each worker visits its checkpoints in ascending order and its
// replayer applies every page delta at most once, and no worker idles
// while another still holds unclaimed samples.
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
	// shortFlag: flag-bit fault that kept the branch direction, tail
	// synthesized (Report.ShortLive).
	shortFlag
	// shortRejoin: the tail executed until it rejoined the reference run,
	// and the rest was synthesized. Counted as executed too.
	shortRejoin
)

// shortCircuitKind reports whether the fired fault provably changes
// nothing after its firing step, so that the reference finals are the
// sample's result: a branch fault whose category is No Error
// (kindCategory). The faulted branch resolved exactly as in the clean run,
// and the fault left no state behind: an offset flip lives in a use-once
// immediate of a branch that fell through, and a flag flip acts on the one
// branch that evaluates it. Every other fault, register faults included,
// runs until it halts, traps or rejoins. Synthesizing needs a complete
// reference recording.
func shortCircuitKind(l *ckpt.Log, f *cpu.Fault) shortKind {
	if !l.Complete() || !f.Fired {
		return shortNone
	}
	if c, ok := kindCategory(f); !ok || c != errmodel.CatNoError {
		return shortNone
	}
	if f.Kind == cpu.FaultOffsetBit {
		return shortOffset
	}
	return shortFlag
}

// runCkptSamples is the checkpoint engine. The recording run doubles as
// the clean reference. A non-nil log is a pre-recorded reference (a
// session-cache hit); nil records one here.
func runCkptSamples(ctx context.Context, p *isa.Program, cfg *Config, rep *Report, t target,
	label string, ns *sampleSeries, shards []*obs.Collector, results []sampleResult, cleanSteps uint64, log *ckpt.Log) error {
	start := time.Now()
	if log == nil {
		record := phaseSpan(cfg.Metrics, label, "record")
		interval := ckpt.AutoInterval(cfg.CkptInterval, cleanSteps)
		var err error
		log, err = t.record(interval, cfg.MaxSteps)
		record.End()
		if err != nil {
			return fmt.Errorf("%s: %v", p.Name, err)
		}
		PublishRecording(cfg.Metrics, label)
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
	publishLog(cfg.Metrics, label, log)

	// Faults derive per index exactly as under replay; only the execution
	// order changes, and results land in their own index slot.
	faults := make([]cpu.Fault, cfg.Samples)
	points := make([]int, cfg.Samples)
	for i := range faults {
		faults[i] = deriveFault(cfg, i, branches, steps)
		points[i] = sitePoint(log, &faults[i])
	}
	order := orderBySite(points)
	base := rep.WarmTranslator
	injSpan := phaseSpan(cfg.Metrics, label, "inject")
	runners := make([]runner, rep.Workers)
	replayers := make([]*ckpt.Replayer, rep.Workers)
	for w := range runners {
		runners[w], replayers[w] = t.runner(), log.NewReplayer()
	}
	err := par.ForEachShardCtx(ctx, len(order), rep.Workers, func(w, j int) error {
		var c *obs.Collector
		if shards != nil {
			c = shards[w]
		}
		i := order[j]
		runCkptSample(cfg, runners[w], base, log, replayers[w], ns, c, &faults[i], points[i], cfg.SampleOffset+i, want, &results[i])
		dumpFlight(cfg, runners[w], p.Name, label, i, want, &results[i])
		observeProgress(cfg.Progress, w, &results[i])
		return nil
	})
	for _, rp := range replayers {
		rp.Release()
	}
	injSpan.End()
	rep.Elapsed = time.Since(start)
	return err
}

// runCkptSample classifies one fault from a checkpoint restore.
func runCkptSample(cfg *Config, r runner, base dbt.Stats, log *ckpt.Log,
	rp *ckpt.Replayer, ns *sampleSeries, c *obs.Collector,
	f *cpu.Fault, k, sample int, want []int32, out *sampleResult) {
	m := rp.Machine(k)
	m.Fault = f
	pt := &log.Points[k]
	r.resume(m, pt)
	restored := pt.State.Steps

	// Seek to the firing, which pauses the run right after its step, then
	// synthesize the rest when the firing provably left the run on the
	// reference trajectory, or run it until it rejoins. A provably clean
	// firing on a step that itself ended the run counts as synthesized
	// too.
	f.Pause = true
	stop := r.advance(m, cfg.MaxSteps)
	f.Pause = false
	short := shortNone
	at := -1
	if f.Fired {
		short = shortCircuitKind(log, f)
		if short == shortNone && stop.Reason == cpu.StopOutOfSteps && m.Steps < cfg.MaxSteps {
			if stop, at = runTail(cfg, r, log, rp, k, m); at >= 0 {
				short = shortRejoin
			}
		}
	}

	if short == shortNone {
		res := r.finish(m, stop)
		observeRestore(c, ns, restored, res.Steps-restored, shortNone)
		settle(r, c, ns, base, res, f, sample, want, out)
		return
	}
	// The synthesized tail executed nothing: the compiled-backend work is
	// whatever the sample actually ran, the translator work and signature
	// checks the reference run's — from the rejoined point on, added to
	// the sample's own up to there, for a rejoin.
	observeRestore(c, ns, restored, m.Steps-restored, short)
	out.comp = r.compStats()
	out.stats = log.FinalPrefix
	sigChecks := log.Final.SigChecks
	if short == shortRejoin {
		ref := &log.Points[at]
		out.stats = pt.Prefix
		out.stats.Add(r.tailWork())
		out.stats.Add(log.FinalPrefix.Sub(ref.Prefix))
		sigChecks = m.SigChecks + log.Final.SigChecks - ref.State.SigChecks
	}
	rec := Record{
		Sample:   sample,
		Fault:    *f,
		Outcome:  OutBenign,
		Category: r.category(f),
	}
	if c != nil {
		observeSample(c, ns, &rec, sigChecks, log.CacheSize)
	}
	out.fired = true
	out.rec = rec
	out.short = short
}

// runTail executes a fired sample's tail from restore point k, watching
// the reference run's later checkpoints on block entries and guard
// continuations one at a time (the watch cannot see any other point). Point j stays armed
// until the sample's step count passes point j's by about half an
// interval (the watch expires at a block entry). A watch stop is confirmed
// by the exact full-state check (ckpt.Replayer.Rejoins), no structural
// translator work since resume, and a shifted step count within the
// budget; else the watch moves on to j+1. It returns the point the sample
// rejoined at, or -1 and the stop of the tail it ran to the end. A
// reference tail that itself mutates translator state is never watched:
// a clone following it would change the cache that classifies the fault.
func runTail(cfg *Config, r runner, log *ckpt.Log, rp *ckpt.Replayer, k int, m *cpu.Machine) (cpu.Stop, int) {
	if !log.FinalPrefix.Structural() {
		half := log.Interval / 2
		for j := k + 1; j < len(log.Points) && !r.tailWork().Structural(); j++ {
			pt := &log.Points[j]
			if pt.State.Steps+half <= m.Steps || !r.blockStart(pt.State.IP) {
				continue
			}
			r.watch(pt.State.IP, &pt.State.Regs, pt.State.Steps+half)
			stop := r.advance(m, cfg.MaxSteps)
			if stop.Reason != cpu.StopWatch {
				return stop, -1
			}
			if rp.Rejoins(j) && !r.tailWork().Structural() &&
				m.Steps+log.Final.Steps-pt.State.Steps <= cfg.MaxSteps {
				return stop, j
			}
		}
		r.watch(0, nil, 0)
	}
	return r.advance(m, cfg.MaxSteps), -1
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
// ckpt_shortcircuits_total counts every tail synthesized from the firing
// on, regardless of family. ckpt_rejoined_total counts the executed tails
// that rejoined the reference run.
func observeRestore(c *obs.Collector, ns *sampleSeries, restored, replayed uint64, short shortKind) {
	if c == nil {
		return
	}
	c.Add(ns.restores, 1)
	switch short {
	case shortRejoin:
		c.Add(ns.rejoined, 1)
	case shortOffset, shortFlag:
		c.Add(ns.shortCircuits, 1)
	}
	c.Observe(ns.restoredSteps, obs.DefaultLatencyBuckets, restored)
	c.Observe(ns.replayedSteps, obs.DefaultLatencyBuckets, replayed)
}
