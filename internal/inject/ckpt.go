package inject

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"repro/internal/ckpt"
	"repro/internal/cpu"
	"repro/internal/errmodel"
	"repro/internal/obs"
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
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(points[a], points[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
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

// runCkpt is the checkpoint engine. The recording run doubles as the
// clean reference. A non-nil log is a pre-recorded reference (a
// session-cache hit); nil records one here.
func (c *campaign) runCkpt(ctx context.Context, t target, cleanSteps uint64, log *ckpt.Log) error {
	cfg := c.cfg
	if log == nil {
		record := phaseSpan(cfg.Metrics, c.label, "record")
		interval := ckpt.AutoInterval(cfg.CkptInterval, cleanSteps)
		var err error
		log, err = t.record(interval, cfg.MaxSteps)
		record.End()
		if err != nil {
			return fmt.Errorf("%s: %v", c.prog.Name, err)
		}
		PublishRecording(cfg.Metrics, c.label)
	}
	if log.Stop.Reason != cpu.StopHalt {
		return fmt.Errorf("%s: clean run ended with %v", c.prog.Name, log.Stop)
	}
	c.want, c.branches, c.steps = log.Output, log.Final.DirectBranches, log.Final.Steps
	if c.branches == 0 {
		return fmt.Errorf("%s: no branches to fault", c.prog.Name)
	}
	publishLog(cfg.Metrics, c.label, log)

	// Faults derive per index exactly as under replay, here to sort the
	// samples by restore point and again in the worker that runs one.
	points := make([]int, cfg.Samples)
	for i := range points {
		f := deriveFault(cfg, i, c.branches, c.steps)
		points[i] = sitePoint(log, &f)
	}
	return c.drain(ctx, t, orderBySite(points), log, func(wk *worker, i int) sampleRun {
		return c.runCkptSample(wk, log, points[i])
	})
}

// runCkptSample classifies the worker's fault from a restore at point k.
func (c *campaign) runCkptSample(wk *worker, log *ckpt.Log, k int) sampleRun {
	r, f, maxSteps := wk.r, &wk.f, c.cfg.MaxSteps
	m := wk.rp.Machine(k)
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
	stop := r.advance(m, maxSteps)
	f.Pause = false
	short := shortNone
	at := -1
	if f.Fired {
		short = shortCircuitKind(log, f)
		if short == shortNone && stop.Reason == cpu.StopOutOfSteps && m.Steps < maxSteps {
			if stop, at = runTail(c.cfg, r, log, wk.rp, k, m); at >= 0 {
				short = shortRejoin
			}
		}
	}

	if short == shortNone {
		res := r.finish(m, stop)
		observeRestore(wk.c, c.ns, restored, res.Steps-restored)
		return c.executed(res, f)
	}
	// The synthesized tail executed nothing: the compiled-backend work is
	// whatever the sample actually ran, the translator work and signature
	// checks the reference run's — from the rejoined point on, added to
	// the sample's own up to there, for a rejoin.
	observeRestore(wk.c, c.ns, restored, m.Steps-restored)
	s := sampleRun{
		outcome:   OutBenign,
		stats:     log.FinalPrefix,
		comp:      r.compStats(),
		sigChecks: log.Final.SigChecks,
		cacheSize: log.CacheSize,
		short:     short,
	}
	if short == shortRejoin {
		ref := &log.Points[at]
		s.stats = pt.Prefix
		s.stats.Add(r.tailWork())
		s.stats.Add(log.FinalPrefix.Sub(ref.Prefix))
		s.sigChecks = m.SigChecks + log.Final.SigChecks - ref.State.SigChecks
	}
	return s
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

// observeRestore folds one restore into a worker's collector: the steps
// the checkpoint skipped versus the steps actually executed (the
// engine's amortization ratio).
func observeRestore(c *obs.Collector, ns *sampleSeries, restored, replayed uint64) {
	if c == nil {
		return
	}
	c.Observe(ns.restoredSteps, obs.DefaultLatencyBuckets, restored)
	c.Observe(ns.replayedSteps, obs.DefaultLatencyBuckets, replayed)
}
