package session

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/inject"
	"repro/internal/obs"
)

func getHealth(t *testing.T, url string) (int, HealthJSON) {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h HealthJSON
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("healthz is not JSON: %v", err)
	}
	return resp.StatusCode, h
}

// /healthz walks ok → restoring → draining with the right status codes:
// restoring keeps 200 (the replica is still serving), draining flips to
// 503 so probes and front doors eject it.
func TestHealthzStates(t *testing.T) {
	reg := obs.NewRegistry()
	registry := NewRegistry(Config{Metrics: reg})
	srv := &Server{Registry: registry, Metrics: reg}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, h := getHealth(t, ts.URL); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("fresh server: got %d %q, want 200 ok", code, h.Status)
	}

	registry.restoring.Add(1)
	if code, h := getHealth(t, ts.URL); code != http.StatusOK || h.Status != "restoring" {
		t.Fatalf("restoring: got %d %q, want 200 restoring", code, h.Status)
	}
	registry.restoring.Add(-1)

	srv.StartDrain()
	if code, h := getHealth(t, ts.URL); code != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Fatalf("draining: got %d %q, want 503 draining", code, h.Status)
	}
}

// A draining server fails new campaign POSTs fast with the shared JSON
// 503 shape (never a hung or refused connection), keeps read-only routes
// open, and DrainWait returns once admitted work releases.
func TestDrainRefusesNewCampaigns(t *testing.T) {
	reg := obs.NewRegistry()
	srv := &Server{Registry: NewRegistry(Config{Metrics: reg}), Metrics: reg}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// An admitted request in flight: drain must wait for it.
	rec := httptest.NewRecorder()
	release, ok := srv.begin(rec)
	if !ok {
		t.Fatal("begin refused on a fresh server")
	}
	if n := srv.running.Load(); n != 1 {
		t.Fatalf("running = %d after begin, want 1", n)
	}
	srv.StartDrain()

	body := `{"workload":"164.gzip","scale":0.02,"campaigns":[{"seed":1,"samples":1}]}`
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining POST: got %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining POST: missing Retry-After")
	}
	var e ErrorJSON
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("draining POST: body is not the shared error shape: %v", err)
	}

	// Read-only routes stay open during the drain.
	vresp, err := http.Get(ts.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	vresp.Body.Close()
	if vresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/sessions while draining: got %d, want 200", vresp.StatusCode)
	}

	done := make(chan struct{})
	go func() {
		srv.DrainWait()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("DrainWait returned with a request still admitted")
	default:
	}
	release()
	release() // double release must be a no-op, not a WaitGroup panic
	<-done
	if n := srv.running.Load(); n != 0 {
		t.Fatalf("running = %d after release, want 0", n)
	}
}

// A sharded batch (sample_offset + return_report) answers with
// merge-ready structured reports: MergeReports over the shard records
// reassembles the unsharded record byte for byte.
func TestShardedBatchMergesToWholeCampaign(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	const seed, total, split = 41, 30, 12

	req := Request{
		Workload: testWorkload, Scale: testScale, Technique: "RCF",
		CkptInterval: -1, Workers: 1, ReturnReport: true,
		Campaigns: []SpecJSON{{Seed: seed, Samples: total}},
	}
	code, whole, raw := postBatch(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("whole batch: %d: %s", code, raw)
	}
	if whole[0].ReportStruct == nil {
		t.Fatal("return_report set but report_struct missing")
	}

	req.Campaigns = []SpecJSON{
		{Seed: seed, Samples: split},
		{Seed: seed, Samples: total - split, SampleOffset: split},
	}
	code, shards, raw := postBatch(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("shard batch: %d: %s", code, raw)
	}
	if shards[1].SampleOffset != split {
		t.Fatalf("shard record echoes offset %d, want %d", shards[1].SampleOffset, split)
	}
	merged, err := inject.MergeReports([]*inject.Report{shards[0].ReportStruct, shards[1].ReportStruct})
	if err != nil {
		t.Fatalf("MergeReports over wire reports: %v", err)
	}
	if got, want := inject.FormatNormalized(merged), whole[0].Report; got != want {
		t.Errorf("merged shard reports != whole campaign report\n--- merged ---\n%s\n--- whole ---\n%s", got, want)
	}
}

// Shard ranges validate against the same sample bound as plain
// campaigns: a negative offset or a range past MaxSamples is a 400.
func TestSampleRangeValidation(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	for _, spec := range []SpecJSON{
		{Seed: 1, Samples: 1, SampleOffset: -1},
		{Seed: 1, Samples: 2, SampleOffset: DefaultMaxSamples - 1},
	} {
		code, _, raw := postBatch(t, ts, Request{
			Workload: testWorkload, Scale: testScale,
			Campaigns: []SpecJSON{spec},
		})
		if code != http.StatusBadRequest {
			t.Errorf("offset %d samples %d: got %d, want 400 (%s)",
				spec.SampleOffset, spec.Samples, code, raw)
		}
	}
}

// /v1/metrics serves the registry snapshot as JSON, decodable into the
// same obs.Snapshot shape the front door merges across replicas.
func TestMetricsJSONEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	code, _, raw := postBatch(t, ts, Request{
		Workload: testWorkload, Scale: testScale, Technique: "RCF",
		CkptInterval: -1, Workers: 1,
		Campaigns: []SpecJSON{{Seed: 7, Samples: 3}},
	})
	if code != http.StatusOK {
		t.Fatalf("batch: %d: %s", code, raw)
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/metrics: %d", resp.StatusCode)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("snapshot is not JSON: %v", err)
	}
	if snap.Counters["session_warm_builds_total"] != 1 {
		t.Fatalf("session_warm_builds_total = %d, want 1 (counters: %v)",
			snap.Counters["session_warm_builds_total"], snap.Counters)
	}
}
