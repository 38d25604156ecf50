package inject

import (
	"fmt"
	"sync"

	"repro/internal/errmodel"
	"repro/internal/obs"
)

// Campaign metrics. Series are labeled by technique so CoverageMatrix
// campaigns publish into one registry without colliding; campaigns of
// the same technique (e.g. over several programs) accumulate. The
// counters that restate the report are published from the final report
// (publishCounts), which the worker tallies fold into with one
// Report.Add. What the report lacks is observed per sample into each
// worker's collector (observeSample, observeRestore), flushed into the
// registry when the pool ends; flushes add and take maxima, which
// commute. Either way the registry contents are identical for every
// worker count.

// seriesName renders `base{technique="T"}`.
func seriesName(base, technique string) string {
	return fmt.Sprintf("%s{technique=%q}", base, technique)
}

// phaseSpan opens a campaign phase timing on the shared series
// `campaign_phase{phase="...",technique="T"}`. Durations are wall-clock;
// they export in the snapshot's spans section, which byte-identity
// comparisons strip (obs.Snapshot.StripTimings).
func phaseSpan(reg *obs.Registry, technique, phase string) *obs.Span {
	return reg.StartSpan("campaign_phase", fmt.Sprintf("technique=%q", technique), phase)
}

// progressLabels returns the tally slots for a Progress tracker: one per
// outcome, indexed by the Outcome value, plus a trailing "not-fired".
func progressLabels() []string {
	labels := make([]string, NumOutcomes+1)
	for i := Outcome(0); i < NumOutcomes; i++ {
		labels[i] = i.String()
	}
	labels[NumOutcomes] = "not-fired"
	return labels
}

// sampleSeries holds the names of one campaign label's series, rendered
// once per label (seriesFor) instead of on every observation.
type sampleSeries struct {
	samples, notFired, sigChecks, cacheInstrs, latency string
	restores, rejoined, shortCircuits, settledTraps    string
	restoredSteps, replayedSteps                       string
	// outcomes[category][outcome] and the per-category detection latency
	// cover every category a sample can carry, CatData included.
	outcomes   [errmodel.NumCategories + 1][NumOutcomes]string
	catLatency [errmodel.NumCategories + 1]string
}

// seriesByLabel memoizes seriesFor across campaigns: rendering one label's
// names takes tens of microseconds, a noticeable share of a small
// campaign. Labels are technique names, so it stays a handful of entries.
var seriesByLabel sync.Map

// seriesFor returns the per-sample series names of a campaign label.
func seriesFor(technique string) *sampleSeries {
	if s, ok := seriesByLabel.Load(technique); ok {
		return s.(*sampleSeries)
	}
	s := &sampleSeries{
		samples:       seriesName("inject_samples_total", technique),
		notFired:      seriesName("inject_not_fired_total", technique),
		sigChecks:     seriesName("cpu_sig_checks_total", technique),
		cacheInstrs:   seriesName("dbt_code_cache_instrs", technique),
		latency:       seriesName("inject_detection_latency_instructions", technique),
		restores:      seriesName("ckpt_restores_total", technique),
		rejoined:      seriesName("ckpt_rejoined_total", technique),
		shortCircuits: seriesName("ckpt_shortcircuits_total", technique),
		settledTraps:  seriesName("ckpt_settled_traps_total", technique),
		restoredSteps: seriesName("ckpt_restored_steps", technique),
		replayedSteps: seriesName("ckpt_replayed_steps", technique),
	}
	for c := range s.outcomes {
		cat := errmodel.Category(c).String()
		for o := range s.outcomes[c] {
			s.outcomes[c][o] = fmt.Sprintf("inject_outcomes_total{technique=%q,category=%q,outcome=%q}",
				technique, cat, Outcome(o).String())
		}
		s.catLatency[c] = fmt.Sprintf("inject_detection_latency_instructions{technique=%q,category=%q}",
			technique, cat)
	}
	v, _ := seriesByLabel.LoadOrStore(technique, s)
	return v.(*sampleSeries)
}

// publishCounts exports the counters that restate the report: samples,
// not-fired faults, outcomes per category and, under the checkpoint
// engine (ckpt), rejoins and short-circuits. A zero count creates no
// series. ckpt_shortcircuits_total counts the No Error samples settled
// at their firing, regardless of family; ckpt_rejoined_total counts the
// executed tails that rejoined the reference run. Restores and settled
// traps are not in the report; workers count them (observeRestore,
// settle).
func publishCounts(reg *obs.Registry, ns *sampleSeries, rep *Report, ckpt bool) {
	count := func(name string, n int) {
		if n > 0 {
			reg.Counter(name).Add(uint64(n))
		}
	}
	count(ns.samples, rep.Samples)
	count(ns.notFired, rep.NotFired)
	for c, a := range rep.ByCat {
		for o, n := range a.Count {
			count(ns.outcomes[c][o], n)
		}
	}
	if ckpt {
		count(ns.rejoined, rep.Rejoined)
		count(ns.shortCircuits, rep.ShortOffset+rep.ShortLive)
	}
}

// observeSample folds what the report lacks of one fired sample into a
// worker's collector: detection-latency histograms (overall and per
// category), executed signature checks and peak code-cache occupancy.
func observeSample(c *obs.Collector, ns *sampleSeries, rec *Record, sigChecks uint64, cacheSize int) {
	c.Add(ns.sigChecks, sigChecks)
	if cacheSize > 0 {
		c.Max(ns.cacheInstrs, int64(cacheSize))
	}
	if detected(rec.Outcome) {
		c.Observe(ns.latency, obs.DefaultLatencyBuckets, rec.Latency)
		c.Observe(ns.catLatency[rec.Category], obs.DefaultLatencyBuckets, rec.Latency)
	}
}
