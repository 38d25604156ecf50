package bench

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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

// TestBenchHandlerRejectsBadBody: unknown fields are a 400 and an oversized
// body a 413, not a stream.
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

// TestBenchHandlerUnknownFigure: a bad figure name aborts with an error
// frame on the stream (headers are already committed).
func TestBenchHandlerUnknownFigure(t *testing.T) {
	metrics := obs.NewRegistry()
	reg := session.NewRegistry(session.Config{Metrics: metrics})
	srv := &session.Server{Registry: reg, Metrics: metrics}
	ts := httptest.NewServer(Handler(srv))
	defer ts.Close()

	resp, err := http.Post(ts.URL, "application/json",
		strings.NewReader(`{"figures":["nope"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var f SuiteFrame
	if err := json.NewDecoder(resp.Body).Decode(&f); err != nil {
		t.Fatal(err)
	}
	if f.Kind != "error" || !strings.Contains(f.Error, "unknown figure") {
		t.Errorf("frame %+v, want error frame", f)
	}
}
