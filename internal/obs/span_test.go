package obs

import (
	"strings"
	"testing"
	"time"
)

func TestSpanRecordAndSnapshot(t *testing.T) {
	r := NewRegistry()
	s := r.StartSpan("campaign_phase", `technique="RCF"`, "inject")
	if d := s.End(); d < 0 {
		t.Fatalf("negative duration %v", d)
	}
	// Second End must not double-count.
	s.End()
	r.RecordSpan(`campaign_phase{phase="inject",technique="RCF"}`, 2*time.Second)

	snap := r.Snapshot()
	sp, ok := snap.Spans[`campaign_phase{phase="inject",technique="RCF"}`]
	if !ok {
		t.Fatalf("span series missing; have %v", snap.Spans)
	}
	if sp.Count != 2 {
		t.Fatalf("count = %d, want 2", sp.Count)
	}
	if sp.Seconds < 2 {
		t.Fatalf("seconds = %v, want >= 2", sp.Seconds)
	}
}

func TestSpanNilSafety(t *testing.T) {
	var r *Registry
	s := r.StartSpan("x", "", "root")
	if s != nil {
		t.Fatalf("nil registry returned non-nil span")
	}
	if d := s.End(); d != 0 {
		t.Fatalf("nil span End = %v, want 0", d)
	}
	r.RecordSpan("x", time.Second) // must not panic
}

func TestSpanExportAndStripTimings(t *testing.T) {
	r := NewRegistry()
	r.Counter("inject_samples_total").Add(5)
	r.RecordSpan(`campaign_phase{phase="merge"}`, 1500*time.Millisecond)

	var js strings.Builder
	if err := r.Snapshot().WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"spans"`) {
		t.Fatalf("JSON export missing spans section:\n%s", js.String())
	}

	var prom strings.Builder
	if err := r.Snapshot().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`campaign_phase_seconds_total{phase="merge"} 1.5`,
		`campaign_phase_runs_total{phase="merge"} 1`,
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("Prometheus export missing %q:\n%s", want, prom.String())
		}
	}

	stripped := r.Snapshot().StripTimings()
	if stripped.Spans != nil {
		t.Fatalf("StripTimings left spans: %v", stripped.Spans)
	}
	if stripped.Counters["inject_samples_total"] != 5 {
		t.Fatalf("StripTimings dropped counters: %v", stripped.Counters)
	}
}
