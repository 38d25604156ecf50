package inject

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/ckpt"
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
// O(N·S) into O(N·interval + S), a tail that rejoins the reference run
// stops there, and a native tail that restarts the program runs once per
// worker. Three properties keep the reports byte-identical to full
// replay:
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
//     is redefined before any read from the fault site on. A third family
//     joins the trajectory later: (3) a fired fault whose tail rejoins
//     the reference run. The tail runs with the compiled engine watching
//     one later checkpoint at a time on a block entry or guard
//     continuation, and stops where its IP and registers match one.
//     There, an exact check
//     (ckpt.Replayer.Rejoins) finds flags, output and every memory word
//     equal too. For a translated run, the translator clone
//     must also have done no structural work since resume, and the
//     reference tail none at all, so the clone's cache stays the
//     reference's. From that point on the sample's run is the reference's
//     shifted by a constant counter offset, so its finals are its own
//     counters plus the reference's remaining work (Final minus the
//     point). A shifted step count past the budget keeps executing (a
//     hang). A fourth family repeats a sibling's tail instead of the
//     reference's: (4) a fired fault whose native tail lands on the
//     program entry, which a return through an unwritten stack word
//     reaches, and agrees there with a tail the worker has already run
//     on every landing value that tail let reach a branch, an address, a
//     trap or an output (the tail memo, memo.go). Its result is the
//     landing's counters plus that tail's deltas and output. Every other
//     fault runs its tail to the end. The replay engine never
//     short-circuits — it is the ground truth the checkpoint reports are
//     diffed against.

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
	// shortRejoin: the tail executed until it rejoined the reference run,
	// and the rest was synthesized. Counted as executed too.
	shortRejoin
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
	faults := make([]*cpu.Fault, cfg.Samples)
	points := make([]int, cfg.Samples)
	for i := range faults {
		faults[i] = deriveFault(cfg, i, branches, steps)
		points[i] = sitePoint(log, faults[i])
	}
	order := orderBySite(points)
	base := rep.WarmTranslator
	// Liveness powers the dead-bit prune; the analysis is shared read-only
	// by every worker.
	prune := phaseSpan(cfg.Metrics, label, "prune")
	li := t.liveness()
	prune.End()
	workers := rep.Workers
	injSpan := phaseSpan(cfg.Metrics, label, "inject")
	err := par.RunWorkersCtx(ctx, workers, func(ctx context.Context, w int) error {
		ws := injSpan.Child(fmt.Sprintf("worker%d", w))
		defer ws.End()
		var c *obs.Collector
		if shards != nil {
			c = shards[w]
		}
		r := t.runner()
		rp := log.NewReplayer()
		for j := w; j < len(order); j += workers {
			if err := ctx.Err(); err != nil {
				return err
			}
			i := order[j]
			left := (len(order) - 1 - j) / workers
			runCkptSample(cfg, r, base, log, rp, li, ns, c, faults[i], points[i], cfg.SampleOffset+i, left, want, &results[i])
			dumpFlight(cfg, r, p.Name, label, i, want, &results[i])
			observeProgress(cfg.Progress, w, &results[i])
		}
		return nil
	})
	injSpan.End()
	rep.Elapsed = time.Since(start)
	return err
}

// runCkptSample classifies one fault from a checkpoint restore. left is
// the number of samples after this one in the worker's share.
func runCkptSample(cfg *Config, r runner, base dbt.Stats, log *ckpt.Log,
	rp *ckpt.Replayer, li *live.Info, ns *sampleSeries, c *obs.Collector,
	f *cpu.Fault, k, sample, left int, want []int32, out *sampleResult) {
	m := rp.Machine(k)
	m.Fault = f
	pt := &log.Points[k]
	r.resume(m, pt)
	restored := pt.State.Steps

	// Execute the tail in interval-sized chunks until the fault fires,
	// then synthesize the rest when the firing provably left the run on
	// the reference trajectory, or run it until it rejoins. A provably
	// clean firing counts as synthesized even when its chunk already ran
	// to the end, so the engine counters do not depend on where the
	// chunks fall. A native runner's memo watches the program entry
	// meanwhile; a sample that has not fired when it stops there (one
	// restored at point 0 starts on it) steps off it.
	tm := r.memo()
	tm.arm()
	stop := cpu.Stop{Reason: cpu.StopOutOfSteps}
	for !f.Fired && stop.Reason == cpu.StopOutOfSteps && m.Steps < cfg.MaxSteps {
		stop = r.advance(m, min(m.Steps+log.Interval, cfg.MaxSteps))
		if stop.Reason == cpu.StopWatch && !f.Fired {
			stop = tm.stepOff(m)
		}
	}
	short := shortNone
	at := -1
	if f.Fired {
		short = shortCircuitKind(log, f, li)
		if short == shortNone && stop.Reason == cpu.StopWatch {
			var res *dbt.Result
			if res, stop = landTail(cfg, r, tm, c, ns, m, left); res != nil {
				observeRestore(c, ns, restored, m.Steps-restored, shortRejoin)
				settle(r, c, ns, base, res, f, sample, want, out)
				out.short = shortRejoin
				return
			}
		}
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

// landTail resolves a fired sample's tail that landed on the program
// entry (memo.go). A memo hit returns the synthesized result. Otherwise it
// returns the stop of the shadow tail it ran, or a non-terminal stop from
// which the caller runs the tail as any other.
func landTail(cfg *Config, r runner, tm *tailMemo, c *obs.Collector, ns *sampleSeries,
	m *cpu.Machine, left int) (*dbt.Result, cpu.Stop) {
	tm.disarm()
	if e := tm.lookup(m, cfg.MaxSteps); e != nil {
		observeMemo(c, ns, true)
		return tm.synthesize(m, e, r.compStats()), cpu.Stop{}
	}
	if !tm.mayShadow(left) {
		return nil, cpu.Stop{Reason: cpu.StopOutOfSteps, IP: m.IP}
	}
	observeMemo(c, ns, false)
	stop, tracked := tm.shadow(m, cfg.MaxSteps)
	if !tracked {
		stop = r.advance(m, cfg.MaxSteps)
	}
	return nil, stop
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

// observeMemo counts one tail-memo event: a hit, or else a shadow tail.
func observeMemo(c *obs.Collector, ns *sampleSeries, hit bool) {
	switch {
	case c == nil:
	case hit:
		c.Add(ns.memoHits, 1)
	default:
		c.Add(ns.shadowTails, 1)
	}
}

// observeRestore folds one restore into a worker's shard: the steps the
// checkpoint skipped versus the steps actually executed (the engine's
// amortization ratio), plus the short-circuit counts.
// ckpt_shortcircuits_total counts every tail synthesized from the firing
// on, regardless of family; ckpt_live_pruned_total additionally counts the
// liveness family. ckpt_rejoined_total counts the executed tails that
// rejoined the reference run.
func observeRestore(c *obs.Collector, ns *sampleSeries, restored, replayed uint64, short shortKind) {
	if c == nil {
		return
	}
	c.Add(ns.restores, 1)
	switch short {
	case shortRejoin:
		c.Add(ns.rejoined, 1)
	case shortLive:
		c.Add(ns.livePruned, 1)
		fallthrough
	case shortOffset:
		c.Add(ns.shortCircuits, 1)
	}
	c.Observe(ns.restoredSteps, obs.DefaultLatencyBuckets, restored)
	c.Observe(ns.replayedSteps, obs.DefaultLatencyBuckets, replayed)
}
