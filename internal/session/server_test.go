package session

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/inject"
	"repro/internal/obs"

	"repro/internal/check"
	"repro/internal/ckpt"
)

// newTestServer returns a running API server over a fresh registry plus
// its metrics registry.
func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	srv := &Server{Registry: NewRegistry(cfg), Metrics: reg}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, reg
}

func postBatch(t *testing.T, ts *httptest.Server, req Request) (int, []RecordJSON, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, string(raw)
	}
	var recs []RecordJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	for {
		var rec RecordJSON
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("stream is not clean NDJSON: %v\n%s", err, raw)
		}
		recs = append(recs, rec)
	}
	return resp.StatusCode, recs, string(raw)
}

// A served batch must be byte-identical to the equivalent cfc-inject run —
// for every worker count, cold and warm.
func TestBatchMatchesCLIByteForByte(t *testing.T) {
	// The reference reports, computed the way cfc-inject does: a cold
	// inject.Execute per (seed, samples).
	p, err := core.Workload(testWorkload, testScale)
	if err != nil {
		t.Fatal(err)
	}
	style, err := core.ParseStyle("CMOVcc")
	if err != nil {
		t.Fatal(err)
	}
	pol, err := core.ParsePolicy("ALLBB")
	if err != nil {
		t.Fatal(err)
	}
	tech, err := check.New("RCF", style)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int64{3, 5}
	want := map[int64]string{}
	for _, seed := range seeds {
		cfg := inject.Config{
			Technique: tech, Policy: pol,
			Samples: testSamples, Seed: seed,
			Options: inject.Options{Workers: 1, CkptInterval: -1},
		}
		rep, err := inject.Execute(context.Background(), p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[seed] = inject.FormatNormalized(rep)
	}

	ts, _ := newTestServer(t, Config{})
	req := Request{
		Workload: testWorkload, Scale: testScale,
		Technique: "RCF", Style: "CMOVcc", Policy: "ALLBB",
		CkptInterval: -1,
	}
	for _, c := range seeds {
		req.Campaigns = append(req.Campaigns, SpecJSON{Seed: c, Samples: testSamples})
	}

	// normalize strips the only legitimately varying fields so streams
	// compare byte for byte across worker counts and cache temperature.
	normalize := func(recs []RecordJSON) string {
		var b strings.Builder
		for _, r := range recs {
			r.ElapsedSec, r.Workers = 0, 0
			out, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(out)
			b.WriteByte('\n')
		}
		return b.String()
	}

	var streams []string
	for _, workers := range []int{1, 4} {
		req.Workers = workers
		for _, temp := range []string{"cold", "warm"} {
			status, recs, raw := postBatch(t, ts, req)
			if status != http.StatusOK {
				t.Fatalf("workers=%d %s: status %d: %s", workers, temp, status, raw)
			}
			if len(recs) != len(seeds) {
				t.Fatalf("workers=%d %s: %d records, want %d", workers, temp, len(recs), len(seeds))
			}
			for i, rec := range recs {
				if rec.Error != "" {
					t.Fatalf("workers=%d %s: campaign %d failed: %s", workers, temp, i, rec.Error)
				}
				if rec.Seed != seeds[i] {
					t.Errorf("workers=%d %s: record %d has seed %d, want %d", workers, temp, i, rec.Seed, seeds[i])
				}
				if rec.Report != want[rec.Seed] {
					t.Errorf("workers=%d %s seed=%d: served report differs from CLI\n got: %s\nwant: %s",
						workers, temp, rec.Seed, rec.Report, want[rec.Seed])
				}
			}
			streams = append(streams, normalize(recs))
		}
	}
	for i := 1; i < len(streams); i++ {
		if streams[i] != streams[0] {
			t.Errorf("stream %d differs from stream 0 after normalization:\n%s\nvs\n%s",
				i, streams[i], streams[0])
		}
	}
}

// Malformed or out-of-range requests fail fast with 400, and oversized
// ones with 413, before any campaign runs.
func TestCampaignValidation(t *testing.T) {
	reg := obs.NewRegistry()
	srv := &Server{Registry: NewRegistry(Config{Metrics: reg}), Metrics: reg}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ok := Request{
		Workload: testWorkload, Scale: testScale,
		Technique: "none", Style: "CMOVcc", Policy: "ALLBB",
		Campaigns: []SpecJSON{{Seed: 1, Samples: 10}},
	}
	cases := []struct {
		name   string
		mutate func(*Request)
	}{
		{"missing workload", func(r *Request) { r.Workload = "" }},
		{"no campaigns", func(r *Request) { r.Campaigns = nil }},
		{"negative samples", func(r *Request) { r.Campaigns = []SpecJSON{{Seed: 1, Samples: -1}} }},
		{"samples over max", func(r *Request) { r.Campaigns = []SpecJSON{{Seed: 1, Samples: DefaultMaxSamples + 1}} }},
		{"unknown workload", func(r *Request) { r.Workload = "999.nope" }},
		{"unknown technique", func(r *Request) { r.Technique = "bogus" }},
		{"unknown style", func(r *Request) { r.Style = "bogus" }},
		{"unknown policy", func(r *Request) { r.Policy = "bogus" }},
		{"ckpt interval below auto", func(r *Request) { r.CkptInterval = -2 }},
		{"ckpt interval far negative", func(r *Request) { r.CkptInterval = math.MinInt64 }},
		{"ckpt interval of one step", func(r *Request) { r.CkptInterval = 1 }},
		{"ckpt interval below floor", func(r *Request) { r.CkptInterval = ckpt.MinAutoInterval - 1 }},
		{"ckpt interval explicit", func(r *Request) { r.CkptInterval = ckpt.MinAutoInterval }},
		{"ckpt interval far positive", func(r *Request) { r.CkptInterval = math.MaxInt64 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := ok
			tc.mutate(&req)
			status, _, body := postBatch(t, ts, req)
			if status != http.StatusBadRequest {
				t.Errorf("status %d, want 400 (%s)", status, body)
			}
		})
	}

	t.Run("unknown field", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json",
			strings.NewReader(`{"workload":"164.gzip","bogus_field":1}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status %d, want 400", resp.StatusCode)
		}
	})

	t.Run("oversized body", func(t *testing.T) {
		body := `{"workload":"` + strings.Repeat("x", MaxRequestBytes) + `"}`
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e ErrorJSON
		derr := json.NewDecoder(resp.Body).Decode(&e)
		if resp.StatusCode != http.StatusRequestEntityTooLarge || derr != nil || e.Error == "" {
			t.Errorf("status %d, error %q (%v); want 413 with an error body", resp.StatusCode, e.Error, derr)
		}
	})

	t.Run("valid request still accepted", func(t *testing.T) {
		for _, iv := range []int64{0, -1} {
			req := ok
			req.CkptInterval = iv
			status, recs, body := postBatch(t, ts, req)
			if status != http.StatusOK || len(recs) != 1 || recs[0].Error != "" {
				t.Errorf("ckpt_interval %d: status %d records %v: %s", iv, status, recs, body)
			}
		}
	})
}

// The inventory and observability endpoints reflect the served work.
func TestSessionsAndMetricsEndpoints(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	req := Request{
		Workload: testWorkload, Scale: testScale,
		Technique: "RCF", Style: "CMOVcc", Policy: "ALLBB",
		CkptInterval: -1,
		Campaigns:    []SpecJSON{{Seed: 1, Samples: 10}, {Seed: 2, Samples: 10}},
	}
	if status, _, body := postBatch(t, ts, req); status != http.StatusOK {
		t.Fatalf("batch: status %d: %s", status, body)
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}

	status, body := get("/v1/sessions")
	if status != http.StatusOK {
		t.Fatalf("/v1/sessions: status %d", status)
	}
	var inv struct {
		Sessions []Info `json:"sessions"`
	}
	if err := json.Unmarshal([]byte(body), &inv); err != nil {
		t.Fatalf("/v1/sessions: %v\n%s", err, body)
	}
	if len(inv.Sessions) != 1 {
		t.Fatalf("/v1/sessions: %d sessions, want 1", len(inv.Sessions))
	}
	in := inv.Sessions[0]
	if in.Workload != testWorkload || in.Technique != "RCF" || in.Campaigns != 2 {
		t.Errorf("/v1/sessions: %+v", in)
	}
	if in.Points == 0 || in.CleanSteps == 0 {
		t.Errorf("/v1/sessions: missing checkpoint geometry: %+v", in)
	}

	status, body = get("/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics: status %d", status)
	}
	for _, series := range []string{"session_misses_total 1", `ckpt_recordings_total{technique="RCF"} 1`} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics: missing %q in:\n%s", series, body)
		}
	}

	if status, body = get("/healthz"); status != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz: %d %q", status, body)
	}

	if resp, err := http.Get(ts.URL + "/v1/campaigns"); err == nil {
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /v1/campaigns: status %d, want 405", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// A batch with progress_ms set interleaves progress frames with the
// records without corrupting the stream, and the ticker goroutine is
// joined before the handler returns — under -race this catches any
// write to the ResponseWriter after ServeHTTP. The 1ms interval makes a
// tick racing the final record (and the handler's return) likely.
func TestProgressStreamInterleavesCleanly(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	req := Request{
		Workload: testWorkload, Scale: testScale,
		Technique: "RCF", Style: "CMOVcc", Policy: "ALLBB",
		CkptInterval: -1,
		Workers:      2,
		ProgressMs:   1,
		Campaigns:    []SpecJSON{{Seed: 1, Samples: testSamples}, {Seed: 2, Samples: testSamples}},
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var frames int
	for run := 0; run < 8; run++ {
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: status %d: %s", run, resp.StatusCode, raw)
		}
		// Every line is either a progress frame (single "progress" key) or
		// a record; any torn/interleaved write shows up as a decode error.
		dec := json.NewDecoder(bytes.NewReader(raw))
		var recs []RecordJSON
		for {
			var line map[string]json.RawMessage
			if err := dec.Decode(&line); err == io.EOF {
				break
			} else if err != nil {
				t.Fatalf("run %d: stream is not clean NDJSON: %v\n%s", run, err, raw)
			}
			if p, ok := line["progress"]; ok {
				frames++
				var pj ProgressJSON
				if err := json.Unmarshal(p, &pj); err != nil {
					t.Fatalf("run %d: bad progress frame: %v\n%s", run, err, p)
				}
				if pj.Campaigns != 2 {
					t.Errorf("run %d: progress frame for %d campaigns, want 2", run, pj.Campaigns)
				}
				continue
			}
			var rec RecordJSON
			full, _ := json.Marshal(line)
			if err := json.Unmarshal(full, &rec); err != nil {
				t.Fatalf("run %d: bad record: %v\n%s", run, err, full)
			}
			recs = append(recs, rec)
		}
		if len(recs) != 2 || recs[0].Error != "" || recs[1].Error != "" {
			t.Fatalf("run %d: records %+v, want 2 clean records", run, recs)
		}
	}
	if frames == 0 {
		t.Errorf("no progress frames across any run; the ticker path never executed")
	}
}

// Every spelling of a configuration decodes to its canonical names, so
// the spellings share one session and one report label: ten posts that
// spell three configurations (CFCSS, which reads no style, and RCF under
// Jcc and CMOVcc) build three sessions.
func TestTechniqueSpellingsShareOneSession(t *testing.T) {
	srv := &Server{Registry: NewRegistry(Config{})}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	spellings := []struct{ style, policy string }{{"", ""}, {"CMOVcc", ""}, {"", "ALLBB"}, {"", "allbb"}, {"jcc", "ALLBB"}}
	for _, techs := range [][]string{{"CFCSS", "cfcss", "Cfcss"}, {"RCF", "rcf", "Rcf"}} {
		for i, sp := range spellings {
			status, recs, raw := postBatch(t, ts, Request{
				Workload: testWorkload, Scale: testScale, Technique: techs[i%len(techs)],
				Style: sp.style, Policy: sp.policy,
				Campaigns: []SpecJSON{{Seed: 1, Samples: 5}},
			})
			if status != http.StatusOK || len(recs) != 1 || recs[0].Technique != techs[0] {
				t.Fatalf("%s %q/%q: status %d: %s", techs[i%len(techs)], sp.style, sp.policy, status, raw)
			}
		}
	}
	var keys []string
	for _, in := range srv.Registry.List() {
		keys = append(keys, in.Key.String())
	}
	want := []string{"164.gzip|0.02|CFCSS||ALLBB", "164.gzip|0.02|RCF|CMOVcc|ALLBB", "164.gzip|0.02|RCF|Jcc|ALLBB"}
	if n := srv.Registry.Len(); n != 3 || !slices.Equal(keys, want) {
		t.Errorf("%d sessions %q for three configurations, want %q", n, keys, want)
	}
}

// A key in the coverage matrix's spelling (style CMOVcc, policy "") handed
// to RunCell answers from the cell a served request in canonical spelling
// made, on the same session.
func TestMatrixSpellingHitsServedCell(t *testing.T) {
	srv := &Server{Registry: NewRegistry(Config{Graph: graph.New("")})}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	status, recs, raw := postBatch(t, ts, Request{
		Workload: testWorkload, Scale: testScale, Technique: "CFCSS", Policy: "ALLBB", CkptInterval: -1,
		Campaigns: []SpecJSON{{Seed: 3, Samples: testSamples}},
	})
	if status != http.StatusOK || len(recs) != 1 || recs[0].Error != "" || recs[0].Cached {
		t.Fatalf("served request: status %d: %s", status, raw)
	}
	k := Key{Workload: testWorkload, Scale: testScale, Technique: "CFCSS", Style: "CMOVcc"}
	rep, cached, err := srv.Registry.RunCell(context.Background(), k, Spec{Samples: testSamples, Seed: 3}, core.Options{CkptInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !cached || inject.FormatNormalized(rep) != recs[0].Report {
		t.Errorf("matrix-spelled key: cached=%v, report equal=%v; want the served cell", cached, inject.FormatNormalized(rep) == recs[0].Report)
	}
	if n := srv.Registry.Len(); n != 1 {
		t.Errorf("%d sessions, want 1", n)
	}
}

// A failing campaign mid-batch ends the stream with an error record; the
// earlier records still arrive.
func TestBatchStopsAtFirstError(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	req := Request{
		Workload: testWorkload, Scale: testScale,
		Technique: "none", Style: "CMOVcc", Policy: "ALLBB",
		Campaigns: []SpecJSON{{Seed: 1, Samples: 5}, {Seed: 2, Samples: 5}, {Seed: 3, Samples: 5}},
	}
	// Cancel the request context after the first record arrives by closing
	// the response body early — the stream just ends; nothing hangs. The
	// cheap proxy for "stream aborts cleanly" without manufacturing an
	// engine failure.
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// The server survives the aborted client and serves the next batch.
	if status, recs, raw := postBatch(t, ts, req); status != http.StatusOK || len(recs) != 3 {
		t.Fatalf("after aborted client: status %d, %d records: %s", status, len(recs), raw)
	}
}

// One configuration posted at ckpt_interval 0 and then -1 runs on one
// session: one warm build and one recording serve both engines, and each
// campaign's report equals a cold core.InjectCtx run at the same interval,
// compiled and engine telemetry included.
func TestBothEnginesShareOneSession(t *testing.T) {
	for _, tc := range []struct{ workload, technique string }{{"164.gzip", "RCF"}, {"181.mcf", "CFCSS"}} {
		t.Run(tc.workload+"/"+tc.technique, func(t *testing.T) {
			reg := obs.NewRegistry()
			srv := &Server{Registry: NewRegistry(Config{Metrics: reg}), Metrics: reg}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			p, err := core.Workload(tc.workload, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			for _, iv := range []int64{0, -1} {
				status, recs, raw := postBatch(t, ts, Request{
					Workload: tc.workload, Scale: 0.05, Technique: tc.technique, Style: "CMOVcc", Policy: "ALLBB",
					CkptInterval: iv, Workers: 1, ReturnReport: true,
					Campaigns: []SpecJSON{{Seed: 1, Samples: 300}},
				})
				if status != http.StatusOK || len(recs) != 1 || recs[0].Error != "" || recs[0].ReportStruct == nil {
					t.Fatalf("ckpt_interval %d: status %d: %s", iv, status, raw)
				}
				cold, err := core.InjectCtx(context.Background(), p, core.Config{
					Technique: tc.technique, Style: "CMOVcc", Policy: "ALLBB",
					Options: core.Options{Workers: 1, CkptInterval: iv},
				}, 300, 1)
				if err != nil {
					t.Fatal(err)
				}
				served := *recs[0].ReportStruct
				served.Elapsed, cold.Elapsed = 0, 0
				got, want := inject.FormatReport(&served), inject.FormatReport(cold)
				if got != want {
					t.Errorf("ckpt_interval %d: served report differs from InjectCtx\n got:\n%s\nwant:\n%s", iv, got, want)
				}
				if hasEngine := strings.Contains(got, "\nengine: "); hasEngine != (iv == -1) {
					t.Errorf("ckpt_interval %d: engine line present = %v\n%s", iv, hasEngine, got)
				}
			}
			if n := srv.Registry.Len(); n != 1 {
				t.Errorf("%d sessions, want 1", n)
			}
			if got := counter(reg, "session_warm_builds_total"); got != 1 {
				t.Errorf("warm builds = %d, want 1", got)
			}
			if got := counter(reg, `ckpt_recordings_total{technique="`+tc.technique+`"}`); got != 1 {
				t.Errorf("recordings = %d, want 1", got)
			}
		})
	}
}
