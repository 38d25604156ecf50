package bench

import (
	"bytes"
	"cmp"
	"encoding/json"
	"net/http"

	"repro/internal/core"
	"repro/internal/session"
)

// BenchRequest is the POST /v1/bench body. Every field is optional: an
// empty body runs the default suite (scale 0.05, 200 campaign samples,
// DefaultSuiteFigures).
type BenchRequest struct {
	Scale   float64  `json:"scale"`
	Samples int      `json:"samples"`
	Seed    int64    `json:"seed"`
	Workers int      `json:"workers"`
	Figures []string `json:"figures"`
}

// validate rejects unknown figures and out-of-range suite parameters
// before any work starts, against the served bounds campaigns obey too:
// one unauthenticated POST must not be able to pin the server on an
// arbitrarily large run. Full-scale (1.0) figures belong to cfc-bench
// batch runs on the machine's own terms.
func (r BenchRequest) validate() error {
	return cmp.Or(CheckFigures(r.Figures), session.CheckSamples(r.Samples),
		session.CheckScale(r.Scale), session.CheckWorkers(r.Workers))
}

// Handler serves the bench suite over the server's warm-session registry
// as an NDJSON stream of SuiteFrames, one per line, flushed as produced.
// The handler lives here rather than in package session because bench
// already imports session; cfc-serve mounts it on the session server's
// mux as an extra Route, so it shares the server's error shape and batch
// tracking — the run's Campaign-Id is pollable at
// GET /v1/campaigns/{id}/progress like any campaign batch.
func Handler(srv *session.Server) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// A bench run is work-carrying like a campaign batch, so it obeys
		// the same drain gate: fail fast with the JSON 503 once the server
		// starts draining.
		release, ok := srv.Begin(w)
		if !ok {
			return
		}
		defer release()
		raw, ok := session.ReadBody(w, r)
		if !ok {
			return
		}
		var req BenchRequest
		if len(bytes.TrimSpace(raw)) > 0 {
			if err := session.DecodeJSON(raw, &req); err != nil {
				session.WriteError(w, http.StatusBadRequest, "bad request: %v", err)
				return
			}
		}
		if err := req.validate(); err != nil {
			session.WriteError(w, http.StatusBadRequest, "bad request: %v", err)
			return
		}
		figures := req.Figures
		if len(figures) == 0 {
			figures = DefaultSuiteFigures
		}
		batch := srv.TrackBatch(len(figures))
		defer batch.Finish()
		w.Header().Set("Campaign-Id", batch.ID())
		w.Header().Set("Content-Type", "application/x-ndjson")
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		figureIndex := map[string]int{}
		for i, f := range figures {
			figureIndex[f] = i
		}
		RunSuite(r.Context(), SuiteConfig{
			Scale:    req.Scale,
			Samples:  req.Samples,
			Seed:     req.Seed,
			Figures:  figures,
			Sessions: srv.Registry,
			// The checkpoint engine with automatic spacing, as cfc-bench runs
			// the campaign figures.
			Options: core.Options{Metrics: srv.Metrics, Workers: req.Workers, CkptInterval: -1, Progress: batch.Tracker()},
		}, func(f SuiteFrame) error {
			if i, ok := figureIndex[f.Figure]; ok {
				batch.SetCampaign(i)
			}
			if err := enc.Encode(f); err != nil {
				return err
			}
			if flusher != nil {
				flusher.Flush()
			}
			return nil
		})
		// A figure that fails mid-run rides the stream as an "error"
		// frame; the status line is already committed.
	})
}
