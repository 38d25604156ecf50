package graph

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/comp"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/inject"
	"repro/internal/obs"
)

// FuzzDecodeEntry feeds arbitrary bytes to the cell-entry decoder, the
// trust boundary for entries read back from a -graph-cache directory.
// Each input is decoded both as a whole file and as a JSON payload sealed
// into a well-formed envelope, so the mutator reaches the payload decoder
// past the checksum. Decoding must never panic, and any entry it accepts
// must round-trip through encodeEntry: its encoding decodes again and
// re-encodes to the very same bytes. Seeds are a real campaign's entry,
// that entry truncated, and that entry under another fingerprint. Plain
// `go test` replays the seeds; `go test -fuzz FuzzDecodeEntry` searches.
func FuzzDecodeEntry(f *testing.F) {
	p, err := core.Workload(testWorkload, testScale)
	if err != nil {
		f.Fatal(err)
	}
	k := KeyFor(p, "RCF", "CMOVcc", "ALLBB", testSamples, testSeed, 0, -1, comp.BackendAuto, 0)
	fpr := k.Fingerprint()
	c := New("")
	if _, _, err := c.Run(k, obs.NewRegistry(), func(m *obs.Registry) (*inject.Report, error) {
		cfg := core.Config{Technique: "RCF", Style: "CMOVcc", Policy: "ALLBB"}
		cfg.Workers, cfg.CkptInterval, cfg.Metrics = 1, -1, m
		return core.InjectCtx(context.Background(), p, cfg, testSamples, testSeed)
	}); err != nil {
		f.Fatal(err)
	}
	good := c.mem[k.fileName()]
	sections, err := frame.Open(cellMagic, good)
	if err != nil {
		f.Fatal(err)
	}
	payload := sections[1]
	f.Add(good, payload)
	f.Add(good[:len(good)/2], payload[:len(payload)/2])
	f.Add(frame.Seal(cellMagic, []byte(fpr+"|other"), payload), payload)
	f.Fuzz(func(t *testing.T, file, payload []byte) {
		decodeEntryRoundTrip(t, fpr, file)
		decodeEntryRoundTrip(t, fpr, frame.Seal(cellMagic, []byte(fpr), payload))
	})
}

// decodeEntryRoundTrip decodes one candidate file and, when it is
// accepted, checks that encodeEntry reaches a fixed point from it.
func decodeEntryRoundTrip(t *testing.T, fpr string, file []byte) {
	e, err := decodeEntry(file, fpr)
	if err != nil {
		return
	}
	enc := encodeEntry(e, fpr)
	again, err := decodeEntry(enc, fpr)
	if err != nil {
		t.Fatalf("re-encoded entry does not decode: %v", err)
	}
	if got := encodeEntry(again, fpr); !bytes.Equal(got, enc) {
		t.Fatalf("entry re-encodes to %d different bytes (first encoding %d)", len(got), len(enc))
	}
}
