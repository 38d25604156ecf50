package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// HistSnapshot is the exported form of one histogram: inclusive upper
// bounds, per-bucket counts (one extra trailing count for +Inf), the sum
// of observed values and the total observation count.
type HistSnapshot struct {
	Bounds []uint64 `json:"le"`
	Counts []uint64 `json:"counts"`
	Sum    uint64   `json:"sum"`
	Count  uint64   `json:"count"`
}

// Snapshot is a point-in-time copy of a registry or collector. Equal
// metric states serialize to byte-identical output: encoding/json sorts
// map keys, and the Prometheus writer sorts series names itself.
type Snapshot struct {
	Counters   map[string]uint64       `json:"counters,omitempty"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
	// Spans carries the phase-timing aggregates. Durations are wall-clock
	// and never deterministic, so byte-identity comparisons strip this
	// section (StripTimings) while the other three stay bit-identical.
	Spans map[string]SpanSnapshot `json:"spans,omitempty"`
}

// StripTimings drops the wall-clock-derived sections, leaving only the
// deterministic counters, gauges and histograms. Returns s for chaining.
func (s *Snapshot) StripTimings() *Snapshot {
	s.Spans = nil
	return s
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for n, c := range r.counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range r.hists {
		hs := HistSnapshot{
			Bounds: append([]uint64(nil), h.bounds...),
			Counts: make([]uint64, len(h.counts)),
			Sum:    h.sum.Load(),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
			hs.Count += hs.Counts[i]
		}
		s.Histograms[n] = hs
	}
	if len(r.spans) > 0 {
		s.Spans = make(map[string]SpanSnapshot, len(r.spans))
		for n, a := range r.spans {
			s.Spans[n] = SpanSnapshot{Count: a.count, Seconds: float64(a.nanos) / 1e9}
		}
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON (deterministic: map
// keys are sorted by the encoder).
func (s *Snapshot) WriteJSON(w io.Writer) error {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(out, '\n'))
	return err
}

// splitSeries separates `base{labels}` into base and the inner label
// list (without braces); labels is empty for plain names.
func splitSeries(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

// joinLabels renders a label set, appending extra (e.g. `le="8"`) to any
// labels already embedded in the series name.
func joinLabels(labels, extra string) string {
	switch {
	case labels == "" && extra == "":
		return ""
	case labels == "":
		return "{" + extra + "}"
	case extra == "":
		return "{" + labels + "}"
	}
	return "{" + labels + "," + extra + "}"
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format, series sorted by name. Histograms expand into cumulative
// `_bucket` series with `le` labels plus `_sum` and `_count`; spans
// expand into `_seconds_total` and `_runs_total`.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, n := range sortedKeys(s.Counters) {
		base, labels := splitSeries(n)
		fmt.Fprintf(&b, "%s%s %d\n", base, joinLabels(labels, ""), s.Counters[n])
	}
	for _, n := range sortedKeys(s.Gauges) {
		base, labels := splitSeries(n)
		fmt.Fprintf(&b, "%s%s %d\n", base, joinLabels(labels, ""), s.Gauges[n])
	}
	hnames := make([]string, 0, len(s.Histograms))
	for n := range s.Histograms {
		hnames = append(hnames, n)
	}
	sort.Strings(hnames)
	for _, n := range hnames {
		h := s.Histograms[n]
		base, labels := splitSeries(n)
		var cum uint64
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			fmt.Fprintf(&b, "%s_bucket%s %d\n", base, joinLabels(labels, fmt.Sprintf("le=%q", fmt.Sprint(bound))), cum)
		}
		cum += h.Counts[len(h.Bounds)]
		fmt.Fprintf(&b, "%s_bucket%s %d\n", base, joinLabels(labels, `le="+Inf"`), cum)
		fmt.Fprintf(&b, "%s_sum%s %d\n", base, joinLabels(labels, ""), h.Sum)
		fmt.Fprintf(&b, "%s_count%s %d\n", base, joinLabels(labels, ""), cum)
	}
	for _, n := range sortedKeys(s.Spans) {
		sp := s.Spans[n]
		base, labels := splitSeries(n)
		fmt.Fprintf(&b, "%s_seconds_total%s %s\n", base, joinLabels(labels, ""),
			strconv.FormatFloat(sp.Seconds, 'g', -1, 64))
		fmt.Fprintf(&b, "%s_runs_total%s %d\n", base, joinLabels(labels, ""), sp.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
