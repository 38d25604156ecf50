package inject

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/ckpt"
	"repro/internal/cpu"
	"repro/internal/errmodel"
	"repro/internal/obs"
)

// The checkpoint-and-resume engine. One instrumented clean run records
// periodic checkpoints and a site table, the run's state at every
// dynamic direct branch (ckpt.Record). Every branch fault first fires
// from its table entry, and a sample whose outcome the firing decides is
// settled there, with no restore. Every other sample restores the nearest
// checkpoint at or before its fault site and executes only the tail,
// turning a campaign of N samples over a clean run of S steps from
// O(N·S) into O(N·interval + S), and a tail that rejoins the reference
// run stops there. Four properties keep the reports byte-identical to
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
//   - Firings are read, not run. Up to its firing a faulty run is the
//     reference run, so the table entry of the faulted branch (IP, the
//     flags it evaluated, its direction, step count, signature checks and
//     translator counters) fires the fault exactly as the machine would
//     (cpu.Fault.FireBranch). The table stands for the run while the run
//     leaves the code untouched, which a reference run that translates
//     nothing does.
//   - Tails are settled or synthesized, never guessed. One rule settles a
//     sample at its firing, before any restore: (1) a fault of category
//     No Error, an offset-bit flip on a branch that fell through (its
//     corrupted immediate is use-once and unused) or a flag-bit flip that
//     left the direction unchanged (the flip acts on the one branch that
//     evaluates it), is on the reference trajectory after firing and
//     ends with the recorded finals; (2) an offset-bit flip that sends a
//     taken branch to the null page or past the code traps at the next
//     fetch, with the work done up to the branch and category F: the
//     snapshot's or program's code length decides, which a clone can
//     only have grown past the firing. Every other fault joins the
//     trajectory later, if at all: (3) a fired fault whose tail rejoins
//     the reference run. The tail runs with the compiled engine watching
//     one later checkpoint at a time on a block entry or guard
//     continuation, and stops where its IP and registers match one.
//     There, an exact check (ckpt.Replayer.Rejoins) finds flags, output
//     and every memory word equal too. For a translated run, the
//     translator clone must also have done no structural work since
//     resume, and the reference tail none at all, so the clone's cache
//     stays the reference's. From that point on the sample's run is the
//     reference's shifted by a constant counter offset, so its finals
//     are its own counters plus the reference's remaining work (Final
//     minus the point). A shifted step count past the budget keeps
//     executing (a hang). Every other fault runs its tail to the end. A
//     return through a stack word the run never wrote ends within a few
//     steps: it fetches from the null page (address 0), which traps on
//     every target. The replay engine never settles or synthesizes a
//     tail — it is the ground truth the checkpoint reports are diffed
//     against.

// faultSite is the value of the firing counter a fault fires at: the
// direct-branch counter for a branch fault, the step counter for a
// register fault.
func faultSite(f *cpu.Fault) uint64 {
	if f.Kind == cpu.FaultRegBit {
		return f.StepIndex
	}
	return f.BranchIndex
}

// sitePoint returns the checkpoint a fault restores from: the last point
// whose firing counter has not yet reached the fault's site.
func sitePoint(l *ckpt.Log, f *cpu.Fault) int {
	if f.Kind == cpu.FaultRegBit {
		return l.PointAtStep(f.StepIndex)
	}
	return l.PointAtBranch(f.BranchIndex)
}

// orderBySite returns sample indices sorted by fault site (ties in sample
// order). A campaign's faults all fire on one counter, so the restore
// points ascend too. Workers claim its entries through one shared,
// growing cursor, so each worker visits its checkpoints in ascending
// order and its replayer applies every page delta at most once, its site
// reader decodes every table entry about once, and no worker idles while
// another still holds unclaimed samples.
//
// The (site, index) pairs sort by value: packed into order itself (site
// high, index low) when the largest site leaves room for the index bits,
// as structs otherwise.
func orderBySite(sites []uint64) []int {
	order := make([]int, len(sites))
	shift := bits.Len(uint(len(sites)))
	var top uint64
	for _, s := range sites {
		top = max(top, s)
	}
	if bits.Len64(top)+shift < bits.UintSize {
		for i, s := range sites {
			order[i] = int(s<<shift) | i
		}
		slices.Sort(order)
		for i := range order {
			order[i] &= 1<<shift - 1
		}
		return order
	}
	type pair struct {
		site  uint64
		index int
	}
	pairs := make([]pair, len(sites))
	for i, s := range sites {
		pairs[i] = pair{s, i}
	}
	slices.SortFunc(pairs, func(a, b pair) int {
		if c := cmp.Compare(a.site, b.site); c != 0 {
			return c
		}
		return cmp.Compare(a.index, b.index)
	})
	for i, p := range pairs {
		order[i] = p.index
	}
	return order
}

// shortKind classifies how a sample's tail was resolved.
type shortKind uint8

const (
	// shortNone: the tail was executed.
	shortNone shortKind = iota
	// shortOffset: not-taken offset-bit fault, settled at its firing.
	shortOffset
	// shortFlag: flag-bit fault that kept the branch direction, settled
	// at its firing (Report.ShortLive).
	shortFlag
	// shortRejoin: the tail executed until it rejoined the reference run,
	// and the rest was synthesized. Counted as executed too.
	shortRejoin
	// shortTrap: offset-bit fault that sends a taken branch out of the
	// code, settled at its firing as the trap of the next fetch. Counted
	// as executed too.
	shortTrap
)

// runCkpt is the checkpoint engine. The recording run doubles as the
// clean reference: w's held log (recorded or restored once per warm
// state), or else one recorded here for this campaign.
func (c *campaign) runCkpt(ctx context.Context, t target, w *Prepared) error {
	cfg := c.cfg
	log := w.log
	if log == nil {
		record := phaseSpan(cfg.Metrics, c.label, "record")
		var err error
		log, err = w.record(ckpt.AutoInterval(cfg.CkptInterval, w.cleanSteps), cfg.MaxSteps)
		record.End()
		if err != nil {
			return err
		}
		publishRecording(cfg.Metrics, c.label)
	}
	c.want, c.branches, c.steps = log.Output, log.Final.DirectBranches, log.Final.Steps
	if c.branches == 0 {
		return fmt.Errorf("%s: no branches to fault", c.prog.Name)
	}
	publishLog(cfg.Metrics, c.label, log)

	// The site table stands for the reference run while that run leaves
	// the code the samples start from untouched, as a run that translates
	// nothing does.
	code := t.code()
	table := !log.FinalPrefix.Structural() && int(log.CodeLen) == len(code)

	// Faults derive per index exactly as under replay, here to sort the
	// samples by fault site and again in the worker that runs one.
	sites := make([]uint64, cfg.Samples)
	for i := range sites {
		f := deriveFault(cfg, i, c.branches, c.steps)
		sites[i] = faultSite(&f)
	}
	return c.drain(ctx, t, orderBySite(sites), func(wk *worker) sampleRun {
		if table {
			if wk.sites == nil {
				wk.sites = log.SiteReader(code)
			}
			if s, ok := c.settleAtFiring(log, wk.sites, &wk.f); ok {
				return s
			}
		}
		return c.runCkptSample(wk, log, sitePoint(log, &wk.f))
	})
}

// settleAtFiring fires a branch fault from the log's site table and
// settles the sample there when the firing decides its outcome. A fault
// of category No Error (kindCategory) leaves the branch resolving as in
// the clean run and no state behind, so the sample ends as the reference
// run does: an offset flip lives in a use-once immediate of a branch that
// fell through, and a flag flip acts on the one branch that evaluates it.
// An offset flip that sends a taken branch to the null page or past the
// code traps at the next fetch, with the work done up to the branch. The
// code's length is the snapshot's or the program's (runCkpt uses the
// table only when log.CodeLen is that length), never a clone's, which
// could have grown its cache. Any other fault, and a firing past the
// step budget, is left unfired for a restore to run.
func (c *campaign) settleAtFiring(log *ckpt.Log, sites *ckpt.SiteReader, f *cpu.Fault) (sampleRun, bool) {
	if f.Kind == cpu.FaultRegBit {
		return sampleRun{}, false
	}
	site, ok := sites.Site(f.BranchIndex)
	if !ok || site.Steps > c.cfg.MaxSteps {
		return sampleRun{}, false
	}
	fired := *f
	fired.FireBranch(site.Steps, site.IP, site.Instr, site.Flags, site.Taken)
	s := sampleRun{cacheSize: log.CacheSize}
	if cat, ok := kindCategory(&fired); ok && cat == errmodel.CatNoError {
		s.outcome, s.stats, s.sigChecks, s.short = OutBenign, log.FinalPrefix, log.Final.SigChecks, shortFlag
		if fired.Kind == cpu.FaultOffsetBit {
			s.short = shortOffset
		}
	} else if fired.Kind == cpu.FaultOffsetBit && fired.FaultTaken && site.Steps < c.cfg.MaxSteps &&
		(fired.FaultTarget == 0 || fired.FaultTarget >= log.CodeLen) {
		s.outcome, s.stats, s.sigChecks, s.short = OutDetectedHW, site.Prefix, site.SigChecks, shortTrap
	} else {
		return sampleRun{}, false
	}
	*f = fired
	return s, true
}

// runCkptSample runs the worker's fault from a restore at point k.
func (c *campaign) runCkptSample(wk *worker, log *ckpt.Log, k int) sampleRun {
	if wk.rp == nil {
		wk.rp = log.NewReplayer()
	}
	r, f, maxSteps := wk.r, &wk.f, c.cfg.MaxSteps
	m := wk.rp.Machine(k)
	m.Fault = f
	pt := &log.Points[k]
	r.resume(m, pt)
	restored := pt.State.Steps

	// Seek to the firing, which pauses the run right after its step, then
	// run the rest until it rejoins the reference run or ends.
	f.Pause = true
	stop := r.advance(m, maxSteps)
	f.Pause = false
	at := -1
	if f.Fired && stop.Reason == cpu.StopOutOfSteps && m.Steps < maxSteps {
		stop, at = runTail(c.cfg, r, log, wk.rp, k, m)
	}
	if at < 0 {
		res := r.finish(m, stop)
		observeRestore(wk.c, c.ns, restored, res.Steps-restored)
		return c.executed(res, f)
	}
	// From the rejoined point on, the tail is the reference run's: the
	// compiled-backend work is whatever the sample actually ran, the
	// translator work and signature checks its own up to the point plus
	// the reference run's after it.
	observeRestore(wk.c, c.ns, restored, m.Steps-restored)
	ref := &log.Points[at]
	s := sampleRun{
		outcome:   OutBenign,
		stats:     pt.Prefix,
		comp:      r.compStats(),
		sigChecks: m.SigChecks + log.Final.SigChecks - ref.State.SigChecks,
		cacheSize: log.CacheSize,
		short:     shortRejoin,
	}
	s.stats.Add(r.tailWork())
	s.stats.Add(log.FinalPrefix.Sub(ref.Prefix))
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

// publishRecording counts one reference-run recording (as opposed to a
// cache hit that reused a persisted log). The session server's CI smoke
// asserts this counter stays flat across a warm-cache restart.
func publishRecording(reg *obs.Registry, technique string) {
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

// observeRestore folds one restore into a worker's collector: the
// restore itself, and the steps the checkpoint skipped versus the steps
// actually executed (the engine's amortization ratio).
func observeRestore(c *obs.Collector, ns *sampleSeries, restored, replayed uint64) {
	if c == nil {
		return
	}
	c.Add(ns.restores, 1)
	c.Observe(ns.restoredSteps, obs.DefaultLatencyBuckets, restored)
	c.Observe(ns.replayedSteps, obs.DefaultLatencyBuckets, replayed)
}
