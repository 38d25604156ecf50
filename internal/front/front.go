package front

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/session"
)

// Config parameterizes a Front.
type Config struct {
	// Replicas are the cfc-serve base URLs ("http://host:port").
	Replicas []string
	// Vnodes is the virtual-node count per replica (0 = DefaultVnodes).
	Vnodes int
	// QueueDepth / ReplicaCap bound admission (0 = the defaults).
	QueueDepth int
	ReplicaCap int
	// Weights are per-tenant fair-share weights (missing tenants get 1).
	Weights map[string]float64
	// Client performs replica requests; nil uses a default with no
	// timeout (campaign streams are long-lived).
	Client *http.Client
	// PollInterval is the health-probe period (0 = 500ms).
	PollInterval time.Duration
}

// Front is the fleet front door. One Front serves:
//
//	POST /v1/campaigns            route a batch to its home replica
//	                              (?fanout=N shards each campaign over N
//	                              replicas and merges, byte-identically)
//	GET  /v1/replicas             per-replica health and ring membership
//	GET  /v1/metrics              fleet-merged metrics snapshot (JSON)
//	GET  /metrics                 fleet-merged Prometheus exposition
//	GET  /healthz                 front readiness (503 with no ready replica)
//
// Routing is by session fingerprint (session.Key.String()), so every
// campaign on one configuration lands on the replica holding that warm
// session; membership changes re-route via the ring, and the survivors
// repopulate warm state from the shared artifact tier.
type Front struct {
	cfg    Config
	adm    *Admission
	client *http.Client
	health *healthTracker

	mu   sync.Mutex
	ring *Ring
}

// New builds a Front over the configured replica set. Call Start to
// begin health polling; until then every replica is assumed ready.
func New(cfg Config) *Front {
	f := &Front{
		cfg:    cfg,
		adm:    NewAdmission(cfg.QueueDepth, cfg.ReplicaCap),
		client: cfg.Client,
	}
	if f.client == nil {
		f.client = &http.Client{}
	}
	for t, w := range cfg.Weights {
		f.adm.SetWeight(t, w)
	}
	f.ring = NewRing(cfg.Replicas, cfg.Vnodes)
	f.health = newHealthTracker(cfg.Replicas, nil, func(ready, ejected []string) {
		f.mu.Lock()
		f.ring = NewRing(ready, cfg.Vnodes)
		f.mu.Unlock()
		// Waiters bound to an ejected replica would otherwise hang in
		// the queue until client timeout.
		for _, r := range ejected {
			f.adm.FailReplica(r)
		}
	})
	return f
}

// Start launches the health poll loop; it stops when ctx is done.
func (f *Front) Start(ctx context.Context) {
	f.health.poll() // settle the ready set before the first request
	go f.health.run(ctx, f.cfg.PollInterval)
}

// Ring returns the current ring (swapped whole on membership changes).
func (f *Front) Ring() *Ring {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ring
}

// Handler returns the front mux.
func (f *Front) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", f.handleCampaigns)
	mux.HandleFunc("GET /v1/replicas", f.handleReplicas)
	mux.HandleFunc("GET /v1/metrics", f.handleMetricsJSON)
	mux.HandleFunc("GET /metrics", f.handleMetrics)
	mux.HandleFunc("GET /healthz", f.handleHealth)
	return mux
}

// tenantOf extracts the fair-queue tenant: the X-Tenant header, or the
// shared default bucket.
func tenantOf(req *http.Request) string {
	if t := req.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "default"
}

// keyOf is the routing fingerprint: the same session key string the
// replicas use for their warm-session and artifact cache identities.
func keyOf(body *session.Request) string {
	return session.Key{
		Workload:     body.Workload,
		Scale:        body.Scale,
		Technique:    body.Technique,
		Style:        body.Style,
		Policy:       body.Policy,
		CkptInterval: body.CkptInterval,
	}.String()
}

func (f *Front) handleCampaigns(w http.ResponseWriter, req *http.Request) {
	raw, ok := session.ReadBody(w, req)
	if !ok {
		return
	}
	var body session.Request
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		session.WriteError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	fanout := 1
	if q := req.URL.Query().Get("fanout"); q != "" {
		var err error
		fanout, err = strconv.Atoi(q)
		if err != nil || fanout < 1 {
			session.WriteError(w, http.StatusBadRequest, "bad request: fanout %q", q)
			return
		}
	}
	key := keyOf(&body)
	if fanout > 1 {
		f.fanoutCampaigns(w, req, &body, key, fanout)
		return
	}

	owner := f.Ring().Owner(key)
	if owner == "" {
		session.WriteError(w, http.StatusServiceUnavailable, "no ready replicas")
		return
	}
	release, err := f.adm.Acquire(req.Context(), tenantOf(req), owner)
	if err != nil {
		writeAdmissionError(w, err)
		return
	}
	defer release()
	f.proxy(w, req, owner, raw)
}

// writeAdmissionError maps Acquire failures onto wire statuses: a full
// queue is the client's backpressure signal (429 + Retry-After), a
// vanished replica or cancellation is a 503.
func writeAdmissionError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		session.WriteError(w, http.StatusTooManyRequests, "%v", err)
	default:
		session.WriteError(w, http.StatusServiceUnavailable, "%v", err)
	}
}

// proxy forwards the batch to its home replica and streams the response
// through unchanged — raw byte passthrough, flushed as it arrives, so
// the client sees exactly the bytes the replica produced (the identity
// the CI stream diffs rely on) with no added latency per record.
func (f *Front) proxy(w http.ResponseWriter, req *http.Request, owner string, raw []byte) {
	preq, err := http.NewRequestWithContext(req.Context(), http.MethodPost,
		owner+"/v1/campaigns", bytes.NewReader(raw))
	if err != nil {
		session.WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	preq.Header.Set("Content-Type", "application/json")
	resp, err := f.client.Do(preq)
	if err != nil {
		session.WriteError(w, http.StatusBadGateway, "replica %s: %v", owner, err)
		return
	}
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Campaign-Id", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Replica", owner)
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32*1024)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// FrontHealth is the GET /healthz body.
type FrontHealth struct {
	Status   string          `json:"status"`
	Ready    int             `json:"ready"`
	Replicas []ReplicaHealth `json:"replicas"`
}

func (f *Front) handleHealth(w http.ResponseWriter, _ *http.Request) {
	h := FrontHealth{Status: "ok", Replicas: f.health.snapshot()}
	for _, rh := range h.Replicas {
		if rh.Ready {
			h.Ready++
		}
	}
	code := http.StatusOK
	if h.Ready == 0 {
		h.Status = "no-replicas"
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(h)
}

// ReplicasJSON is the GET /v1/replicas body: health plus ring view.
type ReplicasJSON struct {
	Ring     []string        `json:"ring"`
	Replicas []ReplicaHealth `json:"replicas"`
}

func (f *Front) handleReplicas(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(ReplicasJSON{Ring: f.Ring().Replicas(), Replicas: f.health.snapshot()})
}

// mergedSnapshot polls every ready replica's /v1/metrics and folds the
// snapshots into one fleet view (counters add, gauges max).
func (f *Front) mergedSnapshot(ctx context.Context) *obs.Snapshot {
	replicas := f.health.readySet()
	snaps := make([]*obs.Snapshot, len(replicas))
	var wg sync.WaitGroup
	for i, r := range replicas {
		wg.Add(1)
		go func(i int, r string) {
			defer wg.Done()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, r+"/v1/metrics", nil)
			if err != nil {
				return
			}
			resp, err := f.client.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			var s obs.Snapshot
			if resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&s) == nil {
				snaps[i] = &s
			}
		}(i, r)
	}
	wg.Wait()
	merged := &obs.Snapshot{}
	for _, s := range snaps {
		merged.Merge(s)
	}
	return merged
}

func (f *Front) handleMetricsJSON(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(f.mergedSnapshot(req.Context()))
}

func (f *Front) handleMetrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	f.mergedSnapshot(req.Context()).WritePrometheus(w)
}
