package obs

import (
	"fmt"
	"time"
)

// Phase spans: hierarchical wall-clock timing for campaign phases
// (warm → record → inject → merge, plus per-worker
// shard spans). Spans are aggregates, not a trace: each series keeps a
// run count and a total duration, so hot phases may be entered many
// times (one span per worker, per campaign) without unbounded growth.
//
// Hierarchy lives in the phase label value, not the metric name:
// `campaign_phase{phase="inject/worker3",technique="RCF"}` — "/" is not
// legal in a Prometheus metric name but is fine inside a label value,
// and the exporters already treat the full `base{labels}` string as the
// series key.
//
// Durations are wall-clock and therefore never deterministic. They
// export through the JSON and Prometheus paths like every other metric,
// but live in their own Snapshot section so byte-identity gates can
// strip them (Snapshot.StripTimings) while the counters, gauges and
// histograms keep comparing bit for bit.

// spanAgg accumulates one span series under the registry mutex.
type spanAgg struct {
	count uint64
	nanos int64
}

// SpanSnapshot is the exported form of one span series: how many times
// the phase ran and the total wall-clock spent in it.
type SpanSnapshot struct {
	Count   uint64  `json:"count"`
	Seconds float64 `json:"seconds"`
}

// Span is one open phase timing. A nil Span (from a nil Registry) is a
// valid receiver: Child returns nil and End is a no-op, so instrumented
// code needs no enablement checks.
type Span struct {
	r      *Registry
	base   string
	labels string
	path   string
	start  time.Time
}

// StartSpan opens a phase span on series base with an optional extra
// label list (without braces, e.g. `technique="RCF"`; "" for none) and
// the root phase name. End records it.
func (r *Registry) StartSpan(base, labels, phase string) *Span {
	if r == nil {
		return nil
	}
	return &Span{r: r, base: base, labels: labels, path: phase, start: time.Now()}
}

// Child opens a sub-span whose phase path extends the parent's with
// "/phase" (e.g. "inject" → "inject/worker3"). The child shares the
// parent's base series and labels but times independently; ending the
// parent does not end its children.
func (s *Span) Child(phase string) *Span {
	if s == nil {
		return nil
	}
	return &Span{r: s.r, base: s.base, labels: s.labels, path: s.path + "/" + phase, start: time.Now()}
}

// End records the span's duration into its registry and returns it.
// Safe to call more than once; only the first call records.
func (s *Span) End() time.Duration {
	if s == nil || s.r == nil {
		return 0
	}
	d := time.Since(s.start)
	s.r.RecordSpan(s.series(), d)
	s.r = nil
	return d
}

// series renders the span's full series key.
func (s *Span) series() string {
	if s.labels == "" {
		return fmt.Sprintf("%s{phase=%q}", s.base, s.path)
	}
	return fmt.Sprintf("%s{phase=%q,%s}", s.base, s.path, s.labels)
}

// RecordSpan folds an externally measured duration into a span series —
// for phases timed by code that cannot hold a Span open (e.g. a
// duration computed from two timestamps).
func (r *Registry) RecordSpan(series string, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	a := r.spans[series]
	if a == nil {
		a = &spanAgg{}
		r.spans[series] = a
	}
	a.count++
	a.nanos += int64(d)
}
