package obs

import (
	"fmt"
	"time"
)

// Phase spans: wall-clock timing for campaign phases (warm → record →
// inject → merge). Spans are aggregates, not a trace: each series keeps a
// run count and a total duration, so hot phases may be entered many
// times (once per campaign) without unbounded growth.
//
// The phase lives in a label value, not the metric name:
// `campaign_phase{phase="inject",technique="RCF"}`; the exporters treat
// the full `base{labels}` string as the series key.
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
// valid receiver: End is a no-op, so instrumented code needs no
// enablement checks.
type Span struct {
	r      *Registry
	base   string
	labels string
	phase  string
	start  time.Time
}

// StartSpan opens a phase span on series base with an optional extra
// label list (without braces, e.g. `technique="RCF"`; "" for none) and
// the root phase name. End records it.
func (r *Registry) StartSpan(base, labels, phase string) *Span {
	if r == nil {
		return nil
	}
	return &Span{r: r, base: base, labels: labels, phase: phase, start: time.Now()}
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
		return fmt.Sprintf("%s{phase=%q}", s.base, s.phase)
	}
	return fmt.Sprintf("%s{phase=%q,%s}", s.base, s.phase, s.labels)
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
