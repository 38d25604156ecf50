package bench

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/inject"
	"repro/internal/obs"
	"repro/internal/session"
	"repro/internal/workloads"
)

// decodeFrames parses an NDJSON suite stream.
func decodeFrames(t *testing.T, body string) []SuiteFrame {
	t.Helper()
	var frames []SuiteFrame
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var f SuiteFrame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("bad frame %q: %v", sc.Text(), err)
		}
		frames = append(frames, f)
	}
	return frames
}

// TestBenchHandlerStreamsSuite: POST /v1/bench with a figure subset must
// stream start, one row per benchmark, the formatted table, and a span
// timing — all through the shared warm registry.
func TestBenchHandlerStreamsSuite(t *testing.T) {
	metrics := obs.NewRegistry()
	reg := session.NewRegistry(session.Config{Metrics: metrics})
	srv := &session.Server{Registry: reg, Metrics: metrics}
	ts := httptest.NewServer(Handler(srv))
	defer ts.Close()

	resp, err := http.Post(ts.URL, "application/json",
		strings.NewReader(`{"scale":0.05,"workers":2,"figures":["dbt"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content-type %q", ct)
	}
	if id := resp.Header.Get("Campaign-Id"); id == "" {
		t.Error("no Campaign-Id header: bench runs are not batch-tracked")
	}
	var body strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		body.WriteString(sc.Text())
		body.WriteByte('\n')
	}
	frames := decodeFrames(t, body.String())

	byKind := map[string]int{}
	for _, f := range frames {
		byKind[f.Kind]++
		if f.Figure != "dbt" {
			t.Errorf("frame for figure %q, want dbt", f.Figure)
		}
	}
	if byKind["start"] != 1 || byKind["table"] != 1 || byKind["span"] != 1 {
		t.Fatalf("frame kinds %v, want one start/table/span", byKind)
	}
	if got, want := byKind["row"], len(workloads.All()); got != want {
		t.Errorf("%d row frames, want %d", got, want)
	}
	last := frames[len(frames)-1]
	if last.Kind != "span" || last.Seconds <= 0 {
		t.Errorf("final frame %+v, want positive span", last)
	}
	for _, f := range frames {
		if f.Kind == "table" && !strings.Contains(f.Text, "geomean overhead") {
			t.Errorf("table frame text:\n%s", f.Text)
		}
	}
	// The suite's program builds went through the warm registry.
	if _, err := reg.Program("164.gzip", 0.05); err != nil {
		t.Fatal(err)
	}
	// Figure timing landed in the metrics registry's span section.
	snap := metrics.Snapshot()
	if _, ok := snap.Spans[`bench_figure{figure="dbt"}`]; !ok {
		t.Errorf("no bench_figure span; spans: %v", snap.Spans)
	}
}

// TestBenchHandlerRejectsBadBody: unknown fields and data after the JSON
// body are a 400 and an oversized body a 413, not a stream.
func TestBenchHandlerRejectsBadBody(t *testing.T) {
	metrics := obs.NewRegistry()
	reg := session.NewRegistry(session.Config{Metrics: metrics})
	srv := &session.Server{Registry: reg, Metrics: metrics}
	ts := httptest.NewServer(Handler(srv))
	defer ts.Close()

	cases := []struct {
		body string
		want int
	}{
		{`{"bogus":1}`, http.StatusBadRequest},
		{`{"figures":["dbt"]} x`, http.StatusBadRequest},
		{`{"figures":["dbt"]}{}`, http.StatusBadRequest},
		{`{"bogus":"` + strings.Repeat("x", session.MaxRequestBytes) + `"}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%d-byte body: status %s, want %d", len(tc.body), resp.Status, tc.want)
		}
	}
}

// TestBenchHandlerRejectsOutOfRange: suite parameters are bounded like
// the campaign endpoint's MaxSamples gate — one request cannot pin the
// server on an arbitrarily large run.
func TestBenchHandlerRejectsOutOfRange(t *testing.T) {
	metrics := obs.NewRegistry()
	reg := session.NewRegistry(session.Config{Metrics: metrics})
	srv := &session.Server{Registry: reg, Metrics: metrics}
	ts := httptest.NewServer(Handler(srv))
	defer ts.Close()

	cases := []struct {
		name, body string
	}{
		{"samples over max", `{"samples":1000001}`},
		{"negative samples", `{"samples":-1}`},
		{"scale over full", `{"scale":1.5}`},
		{"negative scale", `{"scale":-0.1}`},
		{"workers over max", `{"workers":100000}`},
		{"negative workers", `{"workers":-1}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status %s, want 400", resp.Status)
			}
		})
	}
}

// TestBenchHandlerUnknownFigure: a bad figure name is a 400 before any
// work, wherever it stands in the list — not an error frame after the
// figures before it have run.
func TestBenchHandlerUnknownFigure(t *testing.T) {
	metrics := obs.NewRegistry()
	reg := session.NewRegistry(session.Config{Metrics: metrics})
	srv := &session.Server{Registry: reg, Metrics: metrics}
	ts := httptest.NewServer(Handler(srv))
	defer ts.Close()

	for _, body := range []string{`{"figures":["nope"]}`, `{"figures":["dbt","nope"]}`} {
		resp, err := http.Post(ts.URL, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "unknown figure") {
			t.Errorf("%s: status %s, body %q; want 400 naming the unknown figure", body, resp.Status, raw)
		}
	}
	if snap := metrics.Snapshot(); len(snap.Spans) != 0 {
		t.Errorf("rejected requests ran figures: spans %v", snap.Spans)
	}
}

// TestSuiteServesCampaignFigures: the dfc and latency figures run through
// the suite like the others — a start frame, one row per configuration
// or policy, and the same table their generators format.
func TestSuiteServesCampaignFigures(t *testing.T) {
	const scale, samples, seed = 0.04, 40, 3
	opts := inject.Options{Workers: 2, CkptInterval: -1}
	tables := map[string]string{}
	rows := map[string]int{}
	err := RunSuite(context.Background(), SuiteConfig{
		Scale: scale, Samples: samples, Seed: seed,
		Figures: []string{"dfc", "latency"}, Options: opts,
	}, func(f SuiteFrame) error {
		switch f.Kind {
		case "row":
			rows[f.Figure]++
		case "table":
			tables[f.Figure] = f.Text
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := DataFlowCoverage(context.Background(), scale, samples, seed, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	policies, err := PolicyLatency(context.Background(), scale, samples, seed, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows["dfc"] != 4 || rows["latency"] != 4 {
		t.Errorf("rows %v, want 4 per figure", rows)
	}
	if want := FormatDataFlowCoverage(reports); tables["dfc"] != want {
		t.Errorf("dfc table:\n%s\nwant:\n%s", tables["dfc"], want)
	}
	if want := FormatPolicyLatency(policies); tables["latency"] != want {
		t.Errorf("latency table:\n%s\nwant:\n%s", tables["latency"], want)
	}
}

// TestBenchHandlerRunsCheckpointEngine: served campaign figures run on the
// checkpoint engine with automatic spacing, as cfc-bench runs them, so the
// coverage table carries one engine line per technique.
func TestBenchHandlerRunsCheckpointEngine(t *testing.T) {
	metrics := obs.NewRegistry()
	reg := session.NewRegistry(session.Config{Metrics: metrics})
	srv := &session.Server{Registry: reg, Metrics: metrics}
	ts := httptest.NewServer(Handler(srv))
	defer ts.Close()

	resp, err := http.Post(ts.URL, "application/json",
		strings.NewReader(`{"scale":0.02,"samples":20,"workers":2,"figures":["coverage"]}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var table string
	for _, f := range decodeFrames(t, string(raw)) {
		if f.Kind == "table" {
			table = f.Text
		}
	}
	if n := strings.Count(table, "\nengine: "); n != len(CoverageTechniques) {
		t.Errorf("coverage table has %d engine lines, want %d:\n%s", n, len(CoverageTechniques), table)
	}
}
