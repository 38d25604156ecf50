package front

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"reflect"
	"strconv"
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
	ts    *httptest.Server
	srv   *session.Server
	reg   *obs.Registry
	posts atomic.Int64 // campaign requests received
}

func newReplica(t *testing.T) *replica {
	t.Helper()
	reg := obs.NewRegistry()
	r := &replica{srv: &session.Server{Registry: session.NewRegistry(session.Config{Metrics: reg}), Metrics: reg}, reg: reg}
	h := r.srv.Handler()
	r.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method == http.MethodPost && req.URL.Path == "/v1/campaigns" {
			r.posts.Add(1)
		}
		h.ServeHTTP(w, req)
	}))
	t.Cleanup(r.ts.Close)
	return r
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

// frontOverFake starts a front over n fake replicas that answer /healthz
// as ready and serve /v1/campaigns with campaigns, so a test controls
// exactly what the front sees. It returns the front's URL.
func frontOverFake(t testing.TB, n int, campaigns http.HandlerFunc) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(session.HealthJSON{Status: "ok"})
	})
	mux.HandleFunc("POST /v1/campaigns", campaigns)
	var cfg Config
	for range n {
		rep := httptest.NewServer(mux)
		t.Cleanup(rep.Close)
		cfg.Replicas = append(cfg.Replicas, rep.URL)
	}
	f := New(cfg)
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
	url := frontOverFake(t, 1, func(w http.ResponseWriter, _ *http.Request) {
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

// A body with data after its JSON value answers 400 at the front itself,
// on both the proxy and the fan-out path, and never reaches a replica.
func TestFrontRejectsTrailingData(t *testing.T) {
	var posts atomic.Int64
	url := frontOverFake(t, 1, func(w http.ResponseWriter, _ *http.Request) {
		posts.Add(1)
		session.WriteError(w, http.StatusInternalServerError, "replica reached")
	})
	body := `{"workload":"x","campaigns":[{"samples":1}]} trailing`
	for _, path := range []string{"/v1/campaigns", "/v1/campaigns?fanout=2"} {
		resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e session.ErrorJSON
		derr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || derr != nil || e.Error == "" {
			t.Errorf("%s: status %d, error %q (%v); want 400 with an error body", path, resp.StatusCode, e.Error, derr)
		}
	}
	if n := posts.Load(); n != 0 {
		t.Errorf("replica received %d posts, want 0", n)
	}
}

// A replica's shard reply is read up to a bound: a runaway reply becomes
// a campaign error record instead of an unbounded buffer in the front.
func TestFrontBoundsShardReply(t *testing.T) {
	url := frontOverFake(t, 1, func(w http.ResponseWriter, _ *http.Request) {
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

// A fan-out wider than the fleet runs one shard per ring owner: on two
// replicas, ?fanout=2^62 posts one shard to each and answers the same
// record as ?fanout=2 (sample seeds derive from the global index, so the
// shard count never shows), and X-Fanout reports the request against the
// two owners used.
func TestFrontFanoutClampedToOwners(t *testing.T) {
	reps := []*replica{newReplica(t), newReplica(t)}
	_, ts := newFront(t, reps, Config{})
	req := batchReq("RCF", session.SpecJSON{Seed: 5, Samples: 24})

	var recs []session.RecordJSON
	for _, fanout := range []string{"2", "4611686018427387904"} {
		resp, out := postRaw(t, ts.URL+"/v1/campaigns?fanout="+fanout, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fanout=%s: %d: %s", fanout, resp.StatusCode, out)
		}
		if got, want := resp.Header.Get("X-Fanout"), fanout+"/2"; got != want {
			t.Errorf("fanout=%s: X-Fanout %q, want %q", fanout, got, want)
		}
		var rec session.RecordJSON
		if err := json.Unmarshal(out, &rec); err != nil || rec.Error != "" {
			t.Fatalf("fanout=%s: record %q (%v)\n%s", fanout, rec.Error, err, out)
		}
		// The second request answers from the replicas' cell caches.
		rec.ElapsedSec, rec.Cached = 0, false
		recs = append(recs, rec)
		for i, r := range reps {
			if n := r.posts.Swap(0); n != 1 {
				t.Errorf("fanout=%s: replica %d received %d shards, want 1", fanout, i, n)
			}
		}
	}
	if !reflect.DeepEqual(recs[0], recs[1]) {
		t.Errorf("clamped fan-out record differs\n got: %+v\nwant: %+v", recs[1], recs[0])
	}
}

// A request the replicas would refuse (a sample count over the served
// bound, an unknown workload, style or policy, an explicit checkpoint
// spacing) answers 400 at the front
// on every path, before admission or any shard: the replica sees no
// request.
func TestFrontChecksLimitsBeforeShards(t *testing.T) {
	var posts atomic.Int64
	url := frontOverFake(t, 1, func(w http.ResponseWriter, _ *http.Request) {
		posts.Add(1)
		session.WriteError(w, http.StatusInternalServerError, "replica reached")
	})
	for _, tc := range []struct {
		want   string // in the error
		mutate func(*session.Request)
	}{
		{"samples", func(r *session.Request) { r.Campaigns[0].Samples = session.DefaultMaxSamples + 1 }},
		{"workload", func(r *session.Request) { r.Workload = "999.nope" }},
		{"style", func(r *session.Request) { r.Style = "bogus" }},
		{"policy", func(r *session.Request) { r.Policy = "bogus" }},
		{"checkpoint interval", func(r *session.Request) { r.CkptInterval = 512 }},
	} {
		req := batchReq("RCF", session.SpecJSON{Seed: 1, Samples: 4})
		tc.mutate(&req)
		for _, path := range []string{"/v1/campaigns", "/v1/campaigns?fanout=2", "/v1/campaigns?fanout=4611686018427387904"} {
			resp, out := postRaw(t, url+path, req)
			var e session.ErrorJSON
			if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(out, &e) != nil || !strings.Contains(e.Error, tc.want) {
				t.Errorf("%s: status %d, body %s; want 400 naming the %s", path, resp.StatusCode, out, tc.want)
			}
		}
	}
	if n := posts.Load(); n != 0 {
		t.Errorf("replica received %d posts, want 0", n)
	}
}

// FuzzFrontCampaign fuzzes the front's body and ?fanout= together over
// two fake replicas that answer every shard with an error record. The
// front never panics, answers 400 exactly when session.DecodeRequest
// refuses the body or the fan-out is not a positive integer, and posts
// at most min(fan-out, 2) shards: the failed first campaign ends the
// stream.
func FuzzFrontCampaign(f *testing.F) {
	for _, body := range []string{
		`{"workload":"164.gzip","scale":0.05,"technique":"RCF","style":"CMOVcc","policy":"ALLBB","ckpt_interval":-1,"campaigns":[{"seed":1,"samples":200}]}`,
		`{"workload":"181.mcf","technique":"cfcss","style":"cmov","policy":"allbb","campaigns":[{"seed":1,"samples":3},{"seed":2,"samples":1}]}`,
		`{"workload":"176.gcc","technique":"EdgCF","policy":"retbe","campaigns":[{"samples":0}]}`,
		`{"workload":"x","campaigns":[{"samples":1}]}`,
		`{"workload":"164.gzip","style":"bogus","campaigns":[{"samples":1}]}`,
		`{"workload":"164.gzip","campaigns":[{"samples":1,"sample_offset":9223372036854775807}]}`,
		`{"workload":"164.gzip","campaigns":[{"samples":1}]} trailing`,
		``,
	} {
		for _, fanout := range []string{"", "1", "2", "3", "0", "-1", "x", "4611686018427387904", "99999999999999999999"} {
			f.Add([]byte(body), fanout)
		}
	}
	var posts atomic.Int64
	url := frontOverFake(f, 2, func(w http.ResponseWriter, _ *http.Request) {
		posts.Add(1)
		w.Header().Set("Content-Type", "application/x-ndjson")
		json.NewEncoder(w).Encode(session.RecordJSON{Error: "replica reached"})
	})
	f.Fuzz(func(t *testing.T, raw []byte, fanout string) {
		if len(raw) > session.MaxRequestBytes {
			t.Skip("oversized bodies answer 413")
		}
		posts.Store(0)
		resp, err := http.Post(url+"/v1/campaigns?fanout="+neturl.QueryEscape(fanout), "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		n, ferr := 1, error(nil)
		if fanout != "" {
			n, ferr = strconv.Atoi(fanout)
		}
		_, derr := session.DecodeRequest(raw)
		refused := derr != nil || ferr != nil || n < 1
		if (resp.StatusCode == http.StatusBadRequest) != refused {
			t.Fatalf("status %d for fanout %q and a body DecodeRequest answers %v", resp.StatusCode, fanout, derr)
		}
		bound := int64(min(n, 2))
		if refused {
			bound = 0
		}
		if got := posts.Load(); got > bound {
			t.Fatalf("fanout %q: %d shard posts, want at most %d", fanout, got, bound)
		}
	})
}

// The proxy streams a reply spanning several of its copy buffers through
// byte for byte, and again on later requests that reuse the buffers.
func TestFrontProxyStreamsLargeBody(t *testing.T) {
	body := make([]byte, 5*32<<10+123)
	for i := range body {
		body[i] = byte(i*7 + i>>9)
	}
	url := frontOverFake(t, 1, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		flusher := w.(http.Flusher)
		for rest, n := body, 1000; len(rest) > 0; n *= 3 {
			n = min(n, len(rest))
			w.Write(rest[:n])
			flusher.Flush()
			rest = rest[n:]
		}
	})
	req := batchReq("RCF", session.SpecJSON{Seed: 1, Samples: 4})
	for i := 0; i < 3; i++ {
		resp, out := postRaw(t, url+"/v1/campaigns", req)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(out, body) {
			t.Fatalf("request %d: status %d, %d bytes; want 200 and the replica's %d bytes unchanged",
				i, resp.StatusCode, len(out), len(body))
		}
	}
}
