package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

func TestRingWraparound(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Append(Event{Kind: EvBranch, Step: uint64(i)})
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", r.Dropped())
	}
	evs := r.Events()
	for i, ev := range evs {
		if want := uint64(6 + i); ev.Step != want {
			t.Errorf("events[%d].Step = %d, want %d (oldest first)", i, ev.Step, want)
		}
	}
}

func TestRingPartialFill(t *testing.T) {
	r := NewRing(0) // 0 → DefaultFlightDepth
	if cap(r.buf) != DefaultFlightDepth {
		t.Fatalf("default capacity = %d, want %d", cap(r.buf), DefaultFlightDepth)
	}
	r.Append(Event{Step: 1})
	r.Append(Event{Step: 2})
	if r.Len() != 2 || r.Dropped() != 0 {
		t.Fatalf("Len/Dropped = %d/%d, want 2/0", r.Len(), r.Dropped())
	}
	evs := r.Events()
	if len(evs) != 2 || evs[0].Step != 1 || evs[1].Step != 2 {
		t.Fatalf("events = %v", evs)
	}
}

func TestFlightRecorderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	f := NewFlightRecorder(&buf, 8)
	if f.Depth() != 8 {
		t.Fatalf("Depth = %d, want 8", f.Depth())
	}
	in := FlightDump{
		Sample: 7, SampleSeed: 0xdeadbeef, Technique: "RCF",
		Outcome: "SDC", Replayed: "SDC", Dropped: 3,
		Events: []Event{{Kind: EvBranch, Step: 1, Addr: 0x40}},
	}
	f.Dump(in)
	if f.Dumps() != 1 {
		t.Fatalf("Dumps = %d, want 1", f.Dumps())
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	if !sc.Scan() {
		t.Fatal("no JSONL line written")
	}
	// An event carries only the fields the ring fills.
	if want := `"events":[{"kind":"branch","step":1,"addr":64}]`; !bytes.Contains(sc.Bytes(), []byte(want)) {
		t.Errorf("dump line %s lacks %s", sc.Bytes(), want)
	}
	var out FlightDump
	if err := json.Unmarshal(sc.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Sample != 7 || out.SampleSeed != 0xdeadbeef || out.Outcome != "SDC" ||
		len(out.Events) != 1 || out.Events[0].Addr != 0x40 {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	if sc.Scan() {
		t.Fatalf("extra line: %q", sc.Text())
	}
}

type flightFailWriter struct{}

func (flightFailWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestFlightRecorderErrorRetention(t *testing.T) {
	f := NewFlightRecorder(flightFailWriter{}, 1)
	// Overflow the 64 KiB buffer so the error surfaces.
	big := FlightDump{Events: make([]Event, 4096)}
	f.Dump(big)
	f.Dump(big)
	f.Close()
	if f.Err() == nil {
		t.Fatal("write error not retained")
	}
}

func TestFlightRecorderNilSafety(t *testing.T) {
	var f *FlightRecorder
	f.Dump(FlightDump{})
	if f.Depth() != 0 || f.Dumps() != 0 || f.Err() != nil || f.Close() != nil {
		t.Fatal("nil recorder methods not inert")
	}
}
