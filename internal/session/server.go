// The batch campaign API. One POST carries a session key plus a list of
// (seed, samples) campaigns; the response streams one NDJSON record per
// campaign as it completes, so a long batch delivers results
// incrementally. Campaigns in a batch run sequentially (each one fans its
// samples across the requested worker count), which keeps the stream
// order equal to the request order.
package session

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/check"
	"repro/internal/comp"
	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/obs"
	"repro/internal/workloads"
)

// Server serves the batch campaign API over a warm-session registry.
type Server struct {
	Registry *Registry
	// Metrics backs the /metrics endpoint and is handed to every campaign;
	// nil disables both.
	Metrics *obs.Registry

	// Batch progress tracking: every POST /v1/campaigns registers a
	// batchProgress under a server-assigned id (echoed in the Campaign-Id
	// response header) so GET /v1/campaigns/{id}/progress can poll a
	// running batch from a second connection.
	mu       sync.Mutex
	seq      int
	batches  map[string]*batchProgress
	batchIDs []string // registration order, oldest first

	// Drain state: StartDrain flips draining, after which begin fails fast
	// with a JSON 503 instead of admitting new work, and DrainWait blocks
	// until every admitted request releases. draining is guarded by drainMu
	// (not mu) so a drain check never contends with batch registration.
	drainMu  sync.Mutex
	draining bool
	inflight sync.WaitGroup
	running  atomic.Int64 // admitted and not yet released, for /healthz
}

// begin admits one work-carrying request (a campaign batch). When the
// server is draining it writes the shared JSON 503 with a Retry-After
// hint and returns ok=false; otherwise the caller must defer the returned
// release. Read-only routes (progress, sessions, metrics, health) stay
// open during a drain and skip begin.
func (s *Server) begin(w http.ResponseWriter) (release func(), ok bool) {
	s.drainMu.Lock()
	if s.draining {
		s.drainMu.Unlock()
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusServiceUnavailable, "draining: not accepting new campaigns")
		return nil, false
	}
	// Add under the mutex so it cannot race a StartDrain+DrainWait pair
	// (Add-after-Wait is the classic WaitGroup misuse).
	s.inflight.Add(1)
	s.drainMu.Unlock()
	s.running.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			s.running.Add(-1)
			s.inflight.Done()
		})
	}, true
}

// StartDrain stops admitting new work: subsequent begin calls fail fast
// with a JSON 503. In-flight requests keep running; pair with DrainWait.
func (s *Server) StartDrain() {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
}

// DrainWait blocks until every admitted request has released. Call after
// StartDrain; with new admissions refused the wait can only shrink.
func (s *Server) DrainWait() { s.inflight.Wait() }

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	return s.draining
}

// HealthJSON is the GET /healthz body. Status is "ok", "draining" (the
// server refuses new campaigns; the HTTP status is 503 so load-balancer
// probes eject the replica) or "restoring" (the artifact tier is
// populating the warm set — still ready, so the status stays 200).
type HealthJSON struct {
	Status   string `json:"status"`
	Inflight int64  `json:"inflight"`
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	h := HealthJSON{Status: "ok", Inflight: s.running.Load()}
	code := http.StatusOK
	if s.Registry != nil && s.Registry.Restoring() {
		h.Status = "restoring"
	}
	if s.Draining() {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(h)
}

// maxTrackedBatches bounds the progress map: finished batches stay
// pollable until evicted by newer registrations.
const maxTrackedBatches = 128

// batchProgress is one batch's live progress state.
type batchProgress struct {
	id        string
	campaigns int
	tracker   *obs.Progress
	campaign  atomic.Int64 // index of the campaign currently running
	done      atomic.Bool
}

// registerBatch assigns the next batch id and its tracker.
func (s *Server) registerBatch(campaigns int) *batchProgress {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.batches == nil {
		s.batches = map[string]*batchProgress{}
	}
	s.seq++
	bp := &batchProgress{
		id:        fmt.Sprintf("c%08d", s.seq),
		campaigns: campaigns,
		tracker:   obs.NewProgress(),
	}
	s.batches[bp.id] = bp
	s.batchIDs = append(s.batchIDs, bp.id)
	for len(s.batchIDs) > maxTrackedBatches {
		delete(s.batches, s.batchIDs[0])
		s.batchIDs = s.batchIDs[1:]
	}
	return bp
}

// Request is the POST /v1/campaigns body: one session key, the engine and
// the campaigns to run on it.
type Request struct {
	Workload  string  `json:"workload"`
	Scale     float64 `json:"scale"`
	Technique string  `json:"technique"`
	Style     string  `json:"style"`
	Policy    string  `json:"policy"`
	// CkptInterval picks every campaign's engine: -1 resumes samples from
	// the session's checkpoint log, 0 replays them in full. Either engine
	// runs on the same session.
	CkptInterval int64 `json:"ckpt_interval"`
	// Workers shards each campaign's samples (0 = GOMAXPROCS). Results
	// are byte-identical for every value.
	Workers   int        `json:"workers"`
	Campaigns []SpecJSON `json:"campaigns"`
	// ProgressMs, when positive, interleaves progress frames (lines with a
	// single "progress" key) into the NDJSON stream at the given interval.
	// Opt-in, so default streams stay records-only and byte-comparable.
	ProgressMs int `json:"progress_ms"`
	// ReturnReport attaches the structured report to each record
	// (report_struct), so a fan-out front can merge shard reports
	// (inject.MergeReports) without re-parsing the normalized text.
	ReturnReport bool `json:"return_report"`
}

// Key is the session key the request runs on: canonical for every
// request DecodeRequest returns.
func (r Request) Key() Key {
	return Key{r.Workload, r.Scale, r.Technique, r.Style, r.Policy}
}

// SpecJSON is one campaign of a batch.
type SpecJSON struct {
	Seed    int64 `json:"seed"`
	Samples int   `json:"samples"`
	// SampleOffset makes the campaign one shard of a fanned-out run: it
	// executes global samples [SampleOffset, SampleOffset+Samples) (see
	// inject.Config.SampleOffset).
	SampleOffset int `json:"sample_offset,omitempty"`
}

// RecordJSON is one line of the NDJSON response stream.
type RecordJSON struct {
	Index   int   `json:"index"`
	Seed    int64 `json:"seed"`
	Samples int   `json:"samples"`
	// SampleOffset echoes the shard's first global sample index.
	SampleOffset int    `json:"sample_offset,omitempty"`
	Program      string `json:"program,omitempty"`
	Technique    string `json:"technique,omitempty"`
	// Error aborts the stream: the failing campaign's record is the last.
	Error       string         `json:"error,omitempty"`
	NotFired    int            `json:"not_fired"`
	Totals      map[string]int `json:"totals,omitempty"`
	Coverage    float64        `json:"coverage"`
	MeanLatency float64        `json:"mean_latency"`
	Workers     int            `json:"workers,omitempty"`
	ElapsedSec  float64        `json:"elapsed_sec"`
	// Engine telemetry: executed vs synthesized tails (the No Error offset
	// and flag short-circuit families; short_live is the flag family), and
	// the executed tails that rejoined the reference run (a subset of
	// Executed). Zero under the replay engine; excluded from the
	// normalized Report.
	Executed    int `json:"executed,omitempty"`
	ShortOffset int `json:"short_offset,omitempty"`
	ShortLive   int `json:"short_live,omitempty"`
	Rejoined    int `json:"rejoined,omitempty"`
	// Report is the normalized rendering (worker count and wall clock
	// zeroed): byte-identical to `cfc-inject -report-json` for the same
	// configuration, which the CI smoke test diffs against.
	Report string `json:"report,omitempty"`
	// Cached marks a campaign answered from the graph cell cache: the
	// classified results are byte-identical to an executed run, but no
	// samples actually executed (Workers and ElapsedSec read zero).
	Cached bool `json:"cached,omitempty"`
	// ReportStruct is the full structured report, attached only when the
	// request set return_report: the merge-ready form a fan-out front
	// feeds to inject.MergeReports.
	ReportStruct *inject.Report `json:"report_struct,omitempty"`
}

// Handler returns the API mux:
//
//	POST /v1/campaigns                running batch, streaming NDJSON records
//	GET  /v1/campaigns/{id}/progress  poll a running batch's progress
//	GET  /v1/sessions                 list the warm sessions
//	GET  /v1/version                  build and environment info
//	GET  /v1/metrics                  metrics snapshot as JSON (machine-mergeable)
//	GET  /metrics                     Prometheus text exposition
//	GET  /healthz                     readiness: ok / draining (503) / restoring
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", s.handleCampaigns)
	mux.HandleFunc("GET /v1/campaigns/{id}/progress", s.handleProgress)
	mux.HandleFunc("GET /v1/sessions", s.handleSessions)
	mux.HandleFunc("GET /v1/version", handleVersion)
	mux.HandleFunc("GET /v1/metrics", s.handleMetricsJSON)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

// ProgressFrame is one interleaved progress line of the NDJSON stream.
// Record lines never carry a "progress" key, so consumers split on it.
type ProgressFrame struct {
	Progress *ProgressJSON `json:"progress"`
}

// ProgressJSON is a batch progress poll result: which campaign of the
// batch is running and the live fold of its tracker.
type ProgressJSON struct {
	ID        string `json:"id"`
	Campaign  int    `json:"campaign"`
	Campaigns int    `json:"campaigns"`
	Completed bool   `json:"completed"`
	obs.ProgressSnapshot
}

func progressJSON(bp *batchProgress) *ProgressJSON {
	return &ProgressJSON{
		ID:               bp.id,
		Campaign:         int(bp.campaign.Load()),
		Campaigns:        bp.campaigns,
		Completed:        bp.done.Load(),
		ProgressSnapshot: bp.tracker.Snapshot(),
	}
}

func (s *Server) handleProgress(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	s.mu.Lock()
	bp := s.batches[id]
	s.mu.Unlock()
	if bp == nil {
		WriteError(w, http.StatusNotFound, "unknown campaign id %s", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(progressJSON(bp))
}

// VersionInfo is the GET /v1/version response.
type VersionInfo struct {
	Module    string `json:"module,omitempty"`
	Version   string `json:"version,omitempty"`
	Revision  string `json:"revision,omitempty"`
	Modified  bool   `json:"modified,omitempty"`
	GoVersion string `json:"go_version"`
	// Backend is the execution backend campaigns resolve to by default.
	Backend string `json:"default_backend"`
}

func handleVersion(w http.ResponseWriter, _ *http.Request) {
	v := VersionInfo{
		GoVersion: runtime.Version(),
		Backend:   comp.BackendAuto.String(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		v.Module = bi.Main.Path
		v.Version = bi.Main.Version
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				v.Revision = kv.Value
			case "vcs.modified":
				v.Modified = kv.Value == "true"
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// DecodeRequest decodes a POST /v1/campaigns body (decodeJSON: one value,
// no unknown fields, no trailing data) and checks it without building
// anything: a known workload, technique, style and policy, at least one
// campaign, and a scale, worker count, checkpoint interval and every
// campaign's sample range within the served bounds. The names come back
// in their canonical spelling (check.Identify), so every spelling of one
// configuration routes to, and runs on, one session and one cell. It is
// the one gate at the front door and at the replicas.
func DecodeRequest(raw []byte) (Request, error) {
	var body Request
	if err := decodeJSON(raw, &body); err != nil {
		return body, err
	}
	if _, err := workloads.ByName(body.Workload); err != nil {
		return body, err
	}
	id, err := check.Identify(body.Technique, body.Style, body.Policy)
	if err != nil {
		return body, err
	}
	body.Technique, body.Style, body.Policy = id.Names()
	if len(body.Campaigns) == 0 {
		return body, errors.New("at least one campaign required")
	}
	if err := cmp.Or(checkScale(body.Scale), checkWorkers(body.Workers), core.CheckCkptInterval(body.CkptInterval)); err != nil {
		return body, err
	}
	for _, c := range body.Campaigns {
		if err := checkSampleRange(c.SampleOffset, c.Samples); err != nil {
			return body, err
		}
	}
	return body, nil
}

func (s *Server) handleCampaigns(w http.ResponseWriter, req *http.Request) {
	release, ok := s.begin(w)
	if !ok {
		return
	}
	defer release()
	raw, ok := ReadBody(w, req)
	if !ok {
		return
	}
	body, err := DecodeRequest(raw)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	k := body.Key()
	ctx := req.Context()

	bp := s.registerBatch(len(body.Campaigns))
	defer bp.done.Store(true)

	w.Header().Set("Campaign-Id", bp.id)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	// The progress ticker and the record loop share the connection, so
	// every NDJSON line goes through one mutex-held emit. The first encode
	// failure (client gone) is sticky: it stops the ticker too, instead of
	// only the record loop noticing between campaigns.
	var (
		wmu     sync.Mutex
		emitErr error
	)
	emit := func(v any) error {
		wmu.Lock()
		defer wmu.Unlock()
		if emitErr != nil {
			return emitErr
		}
		if err := enc.Encode(v); err != nil {
			emitErr = err
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	if body.ProgressMs > 0 {
		stop := make(chan struct{})
		done := make(chan struct{})
		// net/http forbids touching the ResponseWriter after the handler
		// returns, so the cleanup must join the goroutine, not just signal
		// it: close stop, then wait for done.
		defer func() {
			close(stop)
			<-done
		}()
		go func() {
			defer close(done)
			t := time.NewTicker(time.Duration(body.ProgressMs) * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					// A tick that raced the close must not emit a frame
					// after the record loop wrote its final record.
					select {
					case <-stop:
						return
					default:
					}
					if emit(ProgressFrame{Progress: progressJSON(bp)}) != nil {
						return
					}
				}
			}
		}()
	}
	opts := core.Options{Metrics: s.Metrics, Workers: body.Workers, CkptInterval: body.CkptInterval, Progress: bp.tracker}
	for i, c := range body.Campaigns {
		bp.campaign.Store(int64(i))
		rec := RecordJSON{Index: i, Seed: c.Seed, Samples: c.Samples, SampleOffset: c.SampleOffset}
		rep, cached, err := s.Registry.RunCell(ctx, k,
			Spec{Samples: c.Samples, Seed: c.Seed, SampleOffset: c.SampleOffset}, opts)
		if err != nil {
			rec.Error = err.Error()
		} else {
			FillRecord(&rec, rep)
			rec.Cached = cached
			if body.ReturnReport {
				rec.ReportStruct = rep
			}
		}
		if encErr := emit(rec); encErr != nil {
			return // client went away
		}
		if err != nil {
			return
		}
	}
}

// FillRecord projects a report onto the wire record. Exported so a
// fan-out front can render a merged report as the same record shape the
// replicas stream.
func FillRecord(rec *RecordJSON, rep *inject.Report) {
	rec.Program = rep.Program
	rec.Technique = rep.Technique
	rec.Samples = rep.Samples
	rec.SampleOffset = rep.SampleOffset
	rec.NotFired = rep.NotFired
	rec.Coverage = rep.Totals.Coverage()
	rec.MeanLatency = rep.MeanLatency()
	rec.Workers = rep.Workers
	rec.ElapsedSec = rep.Elapsed.Seconds()
	rec.Executed = rep.Executed
	rec.ShortOffset = rep.ShortOffset
	rec.ShortLive = rep.ShortLive
	rec.Rejoined = rep.Rejoined
	rec.Report = inject.FormatNormalized(rep)
	totals := map[string]int{}
	for o := inject.Outcome(0); o < inject.NumOutcomes; o++ {
		if n := rep.Totals.Count[o]; n > 0 {
			totals[o.String()] = n
		}
	}
	if len(totals) > 0 {
		rec.Totals = totals
	}
}

func (s *Server) handleSessions(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct {
		Sessions []Info `json:"sessions"`
	}{s.Registry.List()})
}

// handleMetricsJSON serves the registry snapshot as JSON: the
// machine-readable twin of /metrics, which a front door polls per
// replica and merges (obs.Snapshot.Merge) into fleet-wide series.
func (s *Server) handleMetricsJSON(w http.ResponseWriter, _ *http.Request) {
	if s.Metrics == nil {
		WriteError(w, http.StatusNotFound, "metrics disabled")
		return
	}
	obs.PublishRuntime(s.Metrics)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Metrics.Snapshot())
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	if s.Metrics == nil {
		WriteError(w, http.StatusNotFound, "metrics disabled")
		return
	}
	// Process-health gauges refresh at scrape time only, so they never
	// perturb the deterministic campaign series.
	obs.PublishRuntime(s.Metrics)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.Metrics.Snapshot().WritePrometheus(w)
}
