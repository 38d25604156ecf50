package inject

import (
	"fmt"
	"sync"

	"repro/internal/errmodel"
	"repro/internal/obs"
)

// Campaign metrics. Series are labeled by technique so CoverageMatrix
// campaigns publish into one registry without colliding; campaigns of
// the same technique (e.g. over several programs) accumulate, matching
// bench.mergeReports semantics. All per-sample observations go through
// per-worker collector shards and commutative merges, so the registry
// contents are identical for every worker count.

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

// observeProgress counts one finished sample on worker w's shard, slotted
// by outcome (or the not-fired slot when the planted fault never fired).
func observeProgress(p *obs.Progress, w int, s *sampleResult) {
	if p == nil {
		return
	}
	if s.fired {
		p.Observe(w, int(s.rec.Outcome))
	} else {
		p.Observe(w, int(NumOutcomes))
	}
}

// newShards allocates one collector per worker, or nil when metrics are
// disabled.
func newShards(reg *obs.Registry, workers int) []*obs.Collector {
	if reg == nil {
		return nil
	}
	shards := make([]*obs.Collector, workers)
	for i := range shards {
		shards[i] = obs.NewCollector()
	}
	return shards
}

// flushShards folds the shards in index order and publishes the result.
// The fold is commutative, so the outcome does not depend on which
// worker observed which sample.
func flushShards(shards []*obs.Collector, reg *obs.Registry) {
	if shards == nil {
		return
	}
	merged := obs.NewCollector()
	for _, s := range shards {
		merged.Merge(s)
	}
	merged.FlushTo(reg)
}

// sampleSeries holds the names of one campaign label's per-sample series,
// rendered once per label (seriesFor) instead of on every observation.
type sampleSeries struct {
	samples, notFired, sigChecks, cacheInstrs, latency string
	restores, rejoined, livePruned, shortCircuits      string
	memoHits, shadowTails                              string
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
		livePruned:    seriesName("ckpt_live_pruned_total", technique),
		shortCircuits: seriesName("ckpt_shortcircuits_total", technique),
		memoHits:      seriesName("ckpt_memo_hits_total", technique),
		shadowTails:   seriesName("ckpt_shadow_tails_total", technique),
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

// observeNotFired records a sample whose planted fault never fired.
func observeNotFired(c *obs.Collector, ns *sampleSeries) {
	c.Add(ns.samples, 1)
	c.Add(ns.notFired, 1)
}

// observeSample folds one classified sample into a worker's shard:
// outcome counters per category, detection-latency histograms (overall
// and per category), executed signature checks and peak code-cache
// occupancy.
func observeSample(c *obs.Collector, ns *sampleSeries, rec *Record, sigChecks uint64, cacheSize int) {
	c.Add(ns.samples, 1)
	c.Add(ns.outcomes[rec.Category][rec.Outcome], 1)
	c.Add(ns.sigChecks, sigChecks)
	if cacheSize > 0 {
		c.Max(ns.cacheInstrs, int64(cacheSize))
	}
	if rec.Outcome == OutDetectedSW || rec.Outcome == OutDetectedHW {
		c.Observe(ns.latency, obs.DefaultLatencyBuckets, rec.Latency)
		c.Observe(ns.catLatency[rec.Category], obs.DefaultLatencyBuckets, rec.Latency)
	}
}
