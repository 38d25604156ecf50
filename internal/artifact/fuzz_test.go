package artifact

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/dbt"
	"repro/internal/frame"
	"repro/internal/isa"
)

// FuzzDecodeArtifact feeds arbitrary bytes to the artifact decoder, the
// trust boundary for blobs fetched over HTTP. Each input is decoded both
// as a whole file and as three section bodies (header, snapshot, log)
// sealed into a well-formed envelope, so the mutator reaches the field
// decoders past the checksum. Decoding must never panic, must allocate
// in proportion to the input, and any input it accepts must re-encode to
// the very same bytes; an accepted snapshot must restore or fail with an
// error. Seeds are the three shapes of TestEncodeDecodeRoundTrip. Plain
// `go test` replays the seeds; `go test -fuzz FuzzDecodeArtifact`
// searches.
func FuzzDecodeArtifact(f *testing.F) {
	full, p := warmArtifact(f)
	fpr := testFingerprint(full)
	for _, a := range []*Artifact{
		full,
		{Key: full.Key, ProgramHash: full.ProgramHash, MaxSteps: full.MaxSteps,
			CleanSteps: full.CleanSteps, Static: true, Log: full.Log},
		{Key: full.Key, ProgramHash: full.ProgramHash, MaxSteps: full.MaxSteps,
			CleanSteps: full.CleanSteps, Snapshot: full.Snapshot},
	} {
		blob := a.Encode(fpr)
		sections, err := frame.Open(artifactMagic, blob)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob, sections[1], sections[2], sections[3])
	}
	f.Fuzz(func(t *testing.T, file, header, snap, log []byte) {
		decodeArtifactRoundTrip(t, p, fpr, file)
		decodeArtifactRoundTrip(t, p, fpr, frame.Seal(artifactMagic, []byte(fpr), header, snap, log))
	})
}

// decodeArtifactRoundTrip decodes one candidate file and checks the
// decoder's allocation bound, canonical re-encoding and snapshot restore.
func decodeArtifactRoundTrip(t *testing.T, p *isa.Program, fpr string, file []byte) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a, err := Decode(file, fpr)
	runtime.ReadMemStats(&after)
	// A decoded block, stub, point or page costs at most a few times its
	// smallest encoding; the slack covers the fixed-size allocations.
	if n := after.TotalAlloc - before.TotalAlloc; n > 8*uint64(len(file))+64<<10 {
		t.Fatalf("decoding %d bytes allocated %d", len(file), n)
	}
	if err != nil {
		return
	}
	if got := a.Encode(fpr); !bytes.Equal(got, file) {
		t.Fatalf("decoded artifact re-encodes to %d different bytes (input %d)", len(got), len(file))
	}
	if a.Snapshot != nil {
		if s, err := dbt.RestoreSnapshot(p, dbt.Options{}, a.Snapshot); s == nil && err == nil {
			t.Fatal("RestoreSnapshot returned neither a snapshot nor an error")
		}
	}
}
