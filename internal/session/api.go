// The shared API surface: request bounds, the error shape and batch
// tracking that every route mounted on the serve mux — the campaign
// endpoint here and sibling handlers like the bench suite — validates
// and reports through, so one unauthenticated POST can never pin the
// server on an absurd run and every error reads the same on the wire.
package session

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/obs"
)

// Served-request bounds, the same on every route and at the front door.
// Full-scale runs belong to the batch CLIs on the machine's own terms,
// not to an open HTTP port.
const (
	// DefaultMaxSamples bounds per-campaign sample counts accepted over HTTP.
	DefaultMaxSamples = 1_000_000
	// DefaultMaxScale bounds the workload dynamic scale.
	DefaultMaxScale = 1.0
	// DefaultMaxWorkers bounds the requested worker fan-out.
	DefaultMaxWorkers = 256
	// MaxRequestBytes bounds a request body read off the wire, at the
	// replicas and the front door alike.
	MaxRequestBytes = 1 << 20
)

// ReadBody reads req's body, at most MaxRequestBytes of it. On failure it
// answers the request itself — 413 for an oversized body, 400 otherwise,
// both in the ErrorJSON shape — and reports false.
func ReadBody(w http.ResponseWriter, req *http.Request) ([]byte, bool) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, req.Body, MaxRequestBytes))
	if err == nil {
		return raw, true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		WriteError(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", MaxRequestBytes)
	} else {
		WriteError(w, http.StatusBadRequest, "bad request: %v", err)
	}
	return nil, false
}

// DecodeJSON decodes raw, which must hold exactly one JSON value, into v:
// it rejects unknown fields and anything but whitespace after the value.
// Every JSON campaign body, at the replicas and the front door alike, is
// decoded through it.
func DecodeJSON(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON body")
	}
	return nil
}

// CheckSamples validates a per-campaign sample count.
func CheckSamples(n int) error {
	if n < 0 || n > DefaultMaxSamples {
		return fmt.Errorf("samples %d out of range [0, %d]", n, DefaultMaxSamples)
	}
	return nil
}

// checkSampleRange validates one campaign's global sample range
// [offset, offset+n) — the sharded form; offset 0 is a plain campaign.
// The whole range must fit the sample bound, so a fleet of shards can
// never address more global samples than one direct campaign could.
func checkSampleRange(offset, n int) error {
	if err := CheckSamples(n); err != nil {
		return err
	}
	if offset < 0 || offset > DefaultMaxSamples-n { // offset+n may overflow
		return fmt.Errorf("sample range [%d, %d) out of range [0, %d]", offset, offset+n, DefaultMaxSamples)
	}
	return nil
}

// CheckScale validates a workload dynamic scale.
func CheckScale(s float64) error {
	if s < 0 || s > DefaultMaxScale {
		return fmt.Errorf("scale %g out of range [0, %g]", s, DefaultMaxScale)
	}
	return nil
}

// CheckWorkers validates a requested worker fan-out.
func CheckWorkers(n int) error {
	if n < 0 || n > DefaultMaxWorkers {
		return fmt.Errorf("workers %d out of range [0, %d]", n, DefaultMaxWorkers)
	}
	return nil
}

// ErrorJSON is the API's error body: every route answers failures as
// {"error": "..."} with the status carrying the class.
type ErrorJSON struct {
	Error string `json:"error"`
}

// WriteError emits the shared error shape.
func WriteError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(ErrorJSON{Error: fmt.Sprintf(format, args...)})
}

// Route is one extra handler mounted on the serve mux by
// Server.Handler, next to the core campaign routes and behind the same
// server instance (Metrics, batch tracking).
type Route struct {
	// Pattern is a net/http method-qualified pattern, e.g. "POST /v1/bench".
	Pattern string
	Handler http.Handler
}

// Batch is a progress-tracked batch handle: its id is pollable at
// GET /v1/campaigns/{id}/progress until evicted. Sibling routes (the
// bench suite) track their runs through the same table, so one progress
// endpoint covers everything the server is doing.
type Batch struct{ bp *batchProgress }

// TrackBatch registers a batch of n campaigns under a server-assigned
// id. Callers set the Campaign-Id response header from ID, drive
// SetCampaign/Tracker as work proceeds, and Finish when done.
func (s *Server) TrackBatch(n int) *Batch {
	return &Batch{bp: s.registerBatch(n)}
}

// ID returns the server-assigned batch id (the Campaign-Id header).
func (b *Batch) ID() string { return b.bp.id }

// Tracker returns the batch's live progress tracker, suitable for
// core.Options.Progress.
func (b *Batch) Tracker() *obs.Progress { return b.bp.tracker }

// SetCampaign records which campaign of the batch is running.
func (b *Batch) SetCampaign(i int) { b.bp.campaign.Store(int64(i)) }

// Finish marks the batch completed (it stays pollable until evicted).
func (b *Batch) Finish() { b.bp.done.Store(true) }
