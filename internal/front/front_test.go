package front

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/session"
)

const (
	testWorkload = "164.gzip"
	testScale    = 0.02
)

// replica is one in-process cfc-serve equivalent.
type replica struct {
	ts  *httptest.Server
	srv *session.Server
	reg *obs.Registry
}

func newReplica(t *testing.T) *replica {
	t.Helper()
	reg := obs.NewRegistry()
	srv := &session.Server{Registry: session.NewRegistry(session.Config{Metrics: reg}), Metrics: reg}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &replica{ts: ts, srv: srv, reg: reg}
}

// newFront builds a front over the replicas and settles its health view.
func newFront(t *testing.T, reps []*replica, cfg Config) (*Front, *httptest.Server) {
	t.Helper()
	for _, r := range reps {
		cfg.Replicas = append(cfg.Replicas, r.ts.URL)
	}
	f := New(cfg)
	f.health.poll()
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(ts.Close)
	return f, ts
}

func postRaw(t *testing.T, url string, req session.Request) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func batchReq(technique string, specs ...session.SpecJSON) session.Request {
	return session.Request{
		Workload: testWorkload, Scale: testScale, Technique: technique,
		CkptInterval: -1, Workers: 1, Campaigns: specs,
	}
}

// The proxy path: same session key always routes to the same replica
// (warm affinity), and the response bytes pass through unchanged.
func TestFrontAffinityAndPassthrough(t *testing.T) {
	reps := []*replica{newReplica(t), newReplica(t), newReplica(t)}
	_, ts := newFront(t, reps, Config{})

	techniques := []string{"none", "EdgCF", "RCF", "ECF"}
	homes := map[string]string{}
	for round := 0; round < 2; round++ {
		for _, tech := range techniques {
			// Fresh seed per round so the second round exercises the warm
			// session rather than the graph cell cache.
			req := batchReq(tech, session.SpecJSON{Seed: int64(round + 1), Samples: 5})
			resp, out := postRaw(t, ts.URL+"/v1/campaigns", req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s round %d: %d: %s", tech, round, resp.StatusCode, out)
			}
			home := resp.Header.Get("X-Replica")
			if home == "" {
				t.Fatalf("%s: no X-Replica header", tech)
			}
			if prev, ok := homes[tech]; ok && prev != home {
				t.Fatalf("%s re-routed from %s to %s with stable membership", tech, prev, home)
			}
			homes[tech] = home

			// Byte passthrough: the front's body equals the replica's own
			// answer for the identical request (graph cache makes the
			// replica's re-answer byte-identical, elapsed/cached aside).
			var viaFront, direct session.RecordJSON
			if err := json.Unmarshal(out, &viaFront); err != nil {
				t.Fatalf("%s: stream is not a record: %v", tech, err)
			}
			_, dout := postRaw(t, home+"/v1/campaigns", req)
			if err := json.Unmarshal(dout, &direct); err != nil {
				t.Fatalf("%s: direct stream: %v", tech, err)
			}
			if viaFront.Report != direct.Report || viaFront.Report == "" {
				t.Fatalf("%s: proxied report differs from direct replica report", tech)
			}
		}
	}

	// Each session was built on exactly one replica: fleet-wide warm
	// builds equal the number of distinct keys.
	total := uint64(0)
	for _, r := range reps {
		total += r.reg.Snapshot().Counters["session_warm_builds_total"]
	}
	if total != uint64(len(techniques)) {
		t.Errorf("fleet session_warm_builds_total = %d, want %d (one home per key)", total, len(techniques))
	}
}

// The fan-out path: ?fanout=3 over three replicas produces a record
// whose normalized report is byte-identical to the unsharded run.
func TestFrontFanoutByteIdentical(t *testing.T) {
	reps := []*replica{newReplica(t), newReplica(t), newReplica(t)}
	_, ts := newFront(t, reps, Config{})

	const seed, samples = 11, 30
	req := batchReq("RCF", session.SpecJSON{Seed: seed, Samples: samples})

	// Reference: the whole campaign on one replica, no front involved.
	_, refOut := postRaw(t, reps[0].ts.URL+"/v1/campaigns", req)
	var ref session.RecordJSON
	if err := json.Unmarshal(refOut, &ref); err != nil {
		t.Fatalf("reference stream: %v\n%s", err, refOut)
	}

	resp, out := postRaw(t, ts.URL+"/v1/campaigns?fanout=3", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fanout POST: %d: %s", resp.StatusCode, out)
	}
	var rec session.RecordJSON
	if err := json.Unmarshal(out, &rec); err != nil {
		t.Fatalf("fanout stream: %v\n%s", err, out)
	}
	if rec.Error != "" {
		t.Fatalf("fanout record error: %s", rec.Error)
	}
	if rec.Report != ref.Report {
		t.Errorf("fan-out merged report differs from single-server run\n--- fanout ---\n%s\n--- single ---\n%s", rec.Report, ref.Report)
	}
	if rec.Samples != samples || rec.NotFired != ref.NotFired {
		t.Errorf("fanout record (samples %d, not_fired %d) != reference (%d, %d)",
			rec.Samples, rec.NotFired, ref.Samples, ref.NotFired)
	}

	// The shards really spread: every replica ran some samples (three
	// shards over three distinct ring successors).
	for i, r := range reps {
		if warm := r.reg.Snapshot().Counters["session_warm_builds_total"]; warm == 0 {
			t.Errorf("replica %d never built the session: fan-out did not reach it", i)
		}
	}
}

// Churn: a replica leaving the ready set re-routes its keys to
// survivors and fails its queued admissions fast; a front with no ready
// replicas answers 503 JSON.
func TestFrontChurnReroutes(t *testing.T) {
	reps := []*replica{newReplica(t), newReplica(t), newReplica(t)}
	f, ts := newFront(t, reps, Config{})

	req := batchReq("RCF", session.SpecJSON{Seed: 3, Samples: 5})
	resp, out := postRaw(t, ts.URL+"/v1/campaigns", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first POST: %d: %s", resp.StatusCode, out)
	}
	home := resp.Header.Get("X-Replica")

	// Kill the home replica and let the tracker notice.
	for _, r := range reps {
		if r.ts.URL == home {
			r.ts.Close()
		}
	}
	f.health.poll()
	if ring := f.Ring().Replicas(); len(ring) != 2 {
		t.Fatalf("ring after churn has %d members, want 2 (%v)", len(ring), ring)
	}

	resp2, out2 := postRaw(t, ts.URL+"/v1/campaigns", batchReq("RCF", session.SpecJSON{Seed: 4, Samples: 5}))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-churn POST: %d: %s", resp2.StatusCode, out2)
	}
	if newHome := resp2.Header.Get("X-Replica"); newHome == home || newHome == "" {
		t.Fatalf("post-churn home = %q, want a survivor (old home %q)", newHome, home)
	}

	// All replicas gone: fail fast with the JSON error shape.
	for _, r := range reps {
		if r.ts.URL != home {
			r.ts.Close()
		}
	}
	f.health.poll()
	resp3, out3 := postRaw(t, ts.URL+"/v1/campaigns", req)
	if resp3.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("no-replica POST: %d, want 503", resp3.StatusCode)
	}
	var e session.ErrorJSON
	if err := json.Unmarshal(out3, &e); err != nil || !strings.Contains(e.Error, "no ready replicas") {
		t.Fatalf("no-replica body: %s", out3)
	}
}

// The fleet metrics endpoints merge replica snapshots: counters sum
// across the fleet.
func TestFrontMergedMetrics(t *testing.T) {
	reps := []*replica{newReplica(t), newReplica(t)}
	_, ts := newFront(t, reps, Config{})

	// One campaign per technique: keys spread across (possibly) both
	// replicas; the merged counter must see every build wherever it ran.
	for i, tech := range []string{"RCF", "EdgCF"} {
		resp, out := postRaw(t, ts.URL+"/v1/campaigns", batchReq(tech, session.SpecJSON{Seed: int64(i + 1), Samples: 3}))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d: %s", tech, resp.StatusCode, out)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("merged snapshot: %v", err)
	}
	if got := snap.Counters["session_warm_builds_total"]; got != 2 {
		t.Errorf("merged session_warm_builds_total = %d, want 2", got)
	}
}

// frontOverFake starts a front over one fake replica that answers
// /healthz as ready and serves /v1/campaigns with campaigns, so a test
// controls exactly what the front sees. It returns the front's URL.
func frontOverFake(t *testing.T, campaigns http.HandlerFunc) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(session.HealthJSON{Status: "ok"})
	})
	mux.HandleFunc("POST /v1/campaigns", campaigns)
	rep := httptest.NewServer(mux)
	t.Cleanup(rep.Close)
	f := New(Config{Replicas: []string{rep.URL}})
	f.health.poll()
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// An oversized request body answers 413 in the ErrorJSON shape at the
// front itself, on both the proxy and the fan-out path: no byte of it
// reaches a replica.
func TestFrontRejectsOversizedBody(t *testing.T) {
	var posts atomic.Int64
	url := frontOverFake(t, func(w http.ResponseWriter, _ *http.Request) {
		posts.Add(1)
		session.WriteError(w, http.StatusInternalServerError, "replica reached")
	})

	body := `{"workload":"` + strings.Repeat("x", session.MaxRequestBytes) + `"}`
	for _, path := range []string{"/v1/campaigns", "/v1/campaigns?fanout=2"} {
		resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e session.ErrorJSON
		derr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || derr != nil || e.Error == "" {
			t.Errorf("%s: status %d, error %q (%v); want 413 with an error body", path, resp.StatusCode, e.Error, derr)
		}
	}
	if n := posts.Load(); n != 0 {
		t.Errorf("replica received %d posts, want 0", n)
	}
}

// A replica's shard reply is read up to a bound: a runaway reply becomes
// a campaign error record instead of an unbounded buffer in the front.
func TestFrontBoundsShardReply(t *testing.T) {
	url := frontOverFake(t, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		json.NewEncoder(w).Encode(session.RecordJSON{Report: strings.Repeat("x", maxShardReplyBytes)})
	})

	resp, out := postRaw(t, url+"/v1/campaigns?fanout=2", batchReq("RCF", session.SpecJSON{Seed: 1, Samples: 4}))
	var rec session.RecordJSON
	if err := json.Unmarshal(out, &rec); err != nil {
		t.Fatalf("fanout stream (%d): %v", resp.StatusCode, err)
	}
	if !strings.Contains(rec.Error, "shard reply over") {
		t.Errorf("record error = %q, want the shard-reply bound", rec.Error)
	}
}
