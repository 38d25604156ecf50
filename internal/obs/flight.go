package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// The per-sample flight recorder: a fixed-size ring of the last K
// machine/translator events for one sample, dumped as JSONL only when
// the injector classifies an anomalous outcome (silent data corruption,
// hang-budget exhaustion). Forensic traces for the samples that matter,
// with nothing paid on the campaign's hot path.

// Event is one flight-recorder record. Kind is always set; zero-valued
// fields are omitted from the JSONL encoding, so consumers must treat an
// absent field as zero.
type Event struct {
	Kind   string `json:"kind"`
	Step   uint64 `json:"step,omitempty"`
	Addr   uint32 `json:"addr,omitempty"`
	Value  int64  `json:"value,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// Event kinds a flight ring holds.
const (
	// EvBranch: one executed direct branch, captured by the re-run's
	// branch hook (step, addr=IP, value=resolved target,
	// detail=taken/fall-through).
	EvBranch = "branch"
	// EvFaultFired: the planted transient fault fired (step, addr=IP,
	// detail=fault kind/bit). Appended once, after the re-run.
	EvFaultFired = "fault-fired"
	// EvStop: the re-run's final machine stop (step, addr=stop IP,
	// detail=stop reason).
	EvStop = "stop"
)

// DefaultFlightDepth is the ring capacity when none is configured: the
// last 64 events lead from well before the fault fired to the stop.
const DefaultFlightDepth = 64

// Ring is a fixed-capacity event ring. Appending past capacity
// overwrites the oldest entry. Not safe for concurrent use — one ring
// belongs to one sample re-run.
type Ring struct {
	buf []Event
	n   uint64 // total appended
}

// NewRing returns a ring holding the last capacity events
// (DefaultFlightDepth when capacity <= 0).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultFlightDepth
	}
	return &Ring{buf: make([]Event, capacity)}
}

// Append records one event, evicting the oldest when full.
func (r *Ring) Append(ev Event) {
	r.buf[r.n%uint64(len(r.buf))] = ev
	r.n++
}

// Len returns the number of retained events.
func (r *Ring) Len() int {
	if r.n < uint64(len(r.buf)) {
		return int(r.n)
	}
	return len(r.buf)
}

// Dropped returns how many events were evicted.
func (r *Ring) Dropped() uint64 {
	return r.n - uint64(r.Len())
}

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event {
	k := r.Len()
	out := make([]Event, k)
	for i := 0; i < k; i++ {
		out[i] = r.buf[(r.n-uint64(k)+uint64(i))%uint64(len(r.buf))]
	}
	return out
}

// FlightDump is one JSONL line of the flight-recorder output: one
// anomalous sample's identity, verdicts and final events. Dumps are
// keyed by the sample's derived seed, so a single sample is replayable
// without re-deriving the whole campaign.
type FlightDump struct {
	Sample     int    `json:"sample"`
	SampleSeed uint64 `json:"sample_seed"`
	Program    string `json:"program,omitempty"`
	Technique  string `json:"technique,omitempty"`
	// Outcome is the campaign's classification; Replayed is the forensic
	// re-run's. Execution is deterministic, so they must agree — a
	// mismatch in a dump is itself a finding.
	Outcome  string  `json:"outcome"`
	Replayed string  `json:"replayed,omitempty"`
	Fault    string  `json:"fault,omitempty"`
	Stop     string  `json:"stop,omitempty"`
	Dropped  uint64  `json:"dropped,omitempty"`
	Events   []Event `json:"events"`
}

// FlightRecorder serializes flight dumps to a JSONL stream. Safe for
// concurrent use (workers dump in completion order); a nil
// *FlightRecorder is a valid disabled recorder.
type FlightRecorder struct {
	mu    sync.Mutex
	w     *bufio.Writer
	c     io.Closer
	enc   *json.Encoder
	depth int
	dumps int
	err   error
}

// NewFlightRecorder wraps w in a buffered JSONL dump stream with the
// given ring depth (<= 0 selects DefaultFlightDepth). If w is also an
// io.Closer, Close closes it.
func NewFlightRecorder(w io.Writer, depth int) *FlightRecorder {
	if depth <= 0 {
		depth = DefaultFlightDepth
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	f := &FlightRecorder{w: bw, enc: json.NewEncoder(bw), depth: depth}
	if c, ok := w.(io.Closer); ok {
		f.c = c
	}
	return f
}

// Depth returns the configured ring capacity (0 on nil).
func (f *FlightRecorder) Depth() int {
	if f == nil {
		return 0
	}
	return f.depth
}

// Dump writes one sample's forensic record. The first write error is
// retained; later dumps are dropped.
func (f *FlightRecorder) Dump(d FlightDump) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		return
	}
	f.dumps++
	f.err = f.enc.Encode(d)
}

// Dumps returns how many samples have been dumped (0 on nil).
func (f *FlightRecorder) Dumps() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dumps
}

// Err returns the first write error, if any.
func (f *FlightRecorder) Err() error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// Close flushes the stream and closes the underlying writer when it is
// closable.
func (f *FlightRecorder) Close() error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if ferr := f.w.Flush(); f.err == nil {
		f.err = ferr
	}
	if f.c != nil {
		if cerr := f.c.Close(); f.err == nil {
			f.err = cerr
		}
		f.c = nil
	}
	return f.err
}
