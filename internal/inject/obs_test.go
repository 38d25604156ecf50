package inject

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/dbt"
	"repro/internal/obs"

	"repro/internal/check"
)

// metricsJSON runs one campaign with a fresh registry and returns the
// serialized snapshot plus the report.
func metricsJSON(t *testing.T, cfg Config, workers int) (string, *Report) {
	t.Helper()
	p := mustAssemble(t, workload)
	cfg.Workers = workers
	cfg.Metrics = obs.NewRegistry()
	rep, err := Execute(context.Background(), p, cfg)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	var buf bytes.Buffer
	// Span durations are wall-clock; only the deterministic sections
	// participate in the byte-identity comparison.
	if err := cfg.Metrics.Snapshot().StripTimings().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String(), rep
}

// TestCampaignMetricsWorkerCountInvariance: the exported metrics snapshot
// — counters, outcome series, latency histograms, gauges — must be
// byte-identical for every worker count, like the report itself.
func TestCampaignMetricsWorkerCountInvariance(t *testing.T) {
	base := Config{
		Technique: &check.RCF{Style: dbt.UpdateCmov},
		Samples:   200,
		Seed:      42,
		MaxSteps:  10_000_000,
	}
	serial, serialRep := metricsJSON(t, base, 1)
	if serial == "{}\n" {
		t.Fatal("serial campaign exported no metrics")
	}
	for _, w := range []int{2, 8} {
		multi, multiRep := metricsJSON(t, base, w)
		if multi != serial {
			t.Errorf("workers=%d: metrics snapshot differs from serial\n got: %s\nwant: %s",
				w, multi, serial)
		}
		if multiRep.Translator != serialRep.Translator {
			t.Errorf("workers=%d: translator stats differ: %+v vs %+v",
				w, multiRep.Translator, serialRep.Translator)
		}
	}
}

// TestCampaignMetricsContents checks the series a campaign is contracted
// to publish, and that they agree with the classified report.
func TestCampaignMetricsContents(t *testing.T) {
	reg := obs.NewRegistry()
	p := mustAssemble(t, workload)
	rep, err := Execute(context.Background(), p, Config{
		Technique: &check.RCF{Style: dbt.UpdateCmov},
		Samples:   200, Seed: 1,
		MaxSteps: 10_000_000,
		Options:  Options{Workers: 4, Metrics: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()

	if got := s.Counters[`inject_samples_total{technique="RCF"}`]; got != uint64(rep.Samples) {
		t.Errorf("samples counter = %d, want %d", got, rep.Samples)
	}
	if got := s.Counters[`inject_not_fired_total{technique="RCF"}`]; got != uint64(rep.NotFired) {
		t.Errorf("not-fired counter = %d, want %d", got, rep.NotFired)
	}
	if got := s.Counters[`dbt_check_sites_total{technique="RCF"}`]; got != uint64(rep.Translator.CheckSites) {
		t.Errorf("check sites counter = %d, want %d", got, rep.Translator.CheckSites)
	}
	if rep.Translator.CheckSites == 0 {
		t.Error("RCF campaign reports zero check sites")
	}

	// Outcome counters sum to the fired-sample total.
	var outcomes uint64
	for name, v := range s.Counters {
		if strings.HasPrefix(name, "inject_outcomes_total{") {
			outcomes += v
		}
	}
	if outcomes != uint64(rep.Samples-rep.NotFired) {
		t.Errorf("outcome counters sum to %d, want %d fired samples",
			outcomes, rep.Samples-rep.NotFired)
	}

	// The overall latency histogram observes exactly the detected runs,
	// and its sum is the report's latency sum.
	h, ok := s.Histograms[`inject_detection_latency_instructions{technique="RCF"}`]
	if !ok {
		t.Fatal("no overall detection-latency histogram")
	}
	if h.Count != uint64(rep.LatencyN) || h.Sum != rep.LatencySum {
		t.Errorf("latency histogram count/sum = %d/%d, want %d/%d",
			h.Count, h.Sum, rep.LatencyN, rep.LatencySum)
	}
	if s.Gauges[`dbt_code_cache_instrs{technique="RCF"}`] <= 0 {
		t.Error("code-cache occupancy gauge not published")
	}
	if s.Counters[`cpu_sig_checks_total{technique="RCF"}`] == 0 {
		t.Error("no executed signature checks counted")
	}
}

// TestCampaignTraceEvents: with a tracer attached, a campaign emits a
// well-formed JSONL stream bracketed by campaign start/end, with
// detection events carrying sample indices and latencies.
func TestCampaignTraceEvents(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	p := mustAssemble(t, workload)
	rep, err := Execute(context.Background(), p, Config{
		Technique: &check.RCF{Style: dbt.UpdateCmov},
		Samples:   100, Seed: 1,
		MaxSteps: 10_000_000,
		Options:  Options{Workers: 4, Trace: tr},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	kinds := map[string]int{}
	detections := 0
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		kinds[ev.Kind]++
		if ev.Kind == obs.EvErrorDetected {
			detections++
			if ev.Sample == nil || *ev.Sample < 0 || *ev.Sample >= rep.Samples {
				t.Fatalf("detection event without valid sample: %+v", ev)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if kinds[obs.EvCampaignStart] != 1 || kinds[obs.EvCampaignEnd] != 1 {
		t.Errorf("campaign bracketing events: %d start, %d end",
			kinds[obs.EvCampaignStart], kinds[obs.EvCampaignEnd])
	}
	if kinds[obs.EvBlockTranslated] == 0 {
		t.Error("no block-translated events from the warm-up")
	}
	if kinds[obs.EvCheckSite] == 0 {
		t.Error("no check-site events under RCF")
	}
	if detections != rep.Totals.Detected() {
		t.Errorf("%d detection events, report says %d detected",
			detections, rep.Totals.Detected())
	}
	if kinds[obs.EvFaultFired] == 0 {
		t.Error("no fault-fired events")
	}
}

// The static campaigns publish through the same shard path.
func TestStaticCampaignMetricsWorkerCountInvariance(t *testing.T) {
	p := mustAssemble(t, workload)
	ip, err := check.InstrumentStatic(p, check.StaticCFCSS)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) string {
		reg := obs.NewRegistry()
		if _, err := Execute(context.Background(), ip, Config{
			Samples: 200, Seed: 42, Options: Options{Workers: workers, Metrics: reg},
		}, AsStatic("CFCSS")); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// The per-campaign native set-up (CFG, frozen engine) is
		// timed under the static technique's warm phase.
		if _, ok := reg.Snapshot().Spans[`campaign_phase{phase="warm",technique="CFCSS"}`]; !ok {
			t.Errorf("workers=%d: no warm span for the native set-up", workers)
		}
		var buf bytes.Buffer
		if err := reg.Snapshot().StripTimings().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := run(1)
	if multi := run(8); multi != serial {
		t.Errorf("static metrics differ across worker counts\n got: %s\nwant: %s", multi, serial)
	}
}
