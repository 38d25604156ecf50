package ckpt

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"testing"

	"repro/internal/asm"
	"repro/internal/check"
	"repro/internal/dbt"
	"repro/internal/frame"
)

// ringWorkload is a second small program for FuzzDecodeLog's seeds: a
// store ring over a short data segment, a call per iteration and output.
const ringWorkload = `
.data 16
main:
    movi ecx, 60
    movi esi, 0
loop:
    store [esi], ecx
    addi esi, 1
    cmpi esi, 16
    jlt next
    movi esi, 0
next:
    call tick
    subi ecx, 1
    cmpi ecx, 0
    jgt loop
    out esi
    halt
tick:
    out ecx
    ret
`

// FuzzDecodeLog feeds arbitrary bytes to the checkpoint-log decoder, both
// as a whole file and sealed as a well-formed envelope's body (so the
// mutator reaches the field decoder past the checksum). Decoding must
// never panic, must allocate in proportion to the input (every count is
// bounded by the bytes left), and any input it accepts must re-encode to
// the very same bytes. Seeds are the encoded logs of two small programs,
// one recorded under the translator and one natively, with their site
// tables, and copies whose tables a reader could not decode
// (badSiteTables). Plain `go test` replays the seeds; `go test -fuzz
// FuzzDecodeLog` searches.
func FuzzDecodeLog(f *testing.F) {
	p := mustAssemble(f)
	snap := warmSnapshot(f, p, dbt.Options{Technique: &check.RCF{Style: dbt.UpdateCmov}})
	ring, err := asm.Assemble("ckpt-ring", ringWorkload)
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range []func() (*Log, error){
		func() (*Log, error) { return Record(snap, 512, maxSteps) },
		func() (*Log, error) { return RecordStatic(ring, nil, 100, maxSteps) },
	} {
		l, err := rec()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(l.Encode(testFingerprint))
		f.Add(l.encodeBody())
		for _, bad := range badSiteTables(l) {
			f.Add(bad.Encode(testFingerprint))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeRoundTrip(t, data)
		decodeRoundTrip(t, frame.Seal(logMagic, []byte(testFingerprint), data))
	})
}

// badSiteTables returns copies of l, by name, whose site tables a reader
// could not decode.
func badSiteTables(l *Log) map[string]*Log {
	mutate := func(f func(*Log)) *Log {
		c := *l
		c.Points = slices.Clone(l.Points)
		f(&c)
		return &c
	}
	return map[string]*Log{
		"an entry short":         mutate(func(c *Log) { c.Final.DirectBranches++ }),
		"an entry over":          mutate(func(c *Log) { c.Final.DirectBranches-- }),
		"IPs outside the code":   mutate(func(c *Log) { c.CodeLen = 1 }),
		"offset past the stream": mutate(func(c *Log) { c.Points[len(c.Points)-1].SiteOffset = uint32(len(c.Sites)) + 3 }),
	}
}

// A site table whose entry count is not the run's branch count, whose
// IPs leave the recorded code or whose point offsets run past it decodes
// as corrupt.
func TestDecodeRejectsBadSiteTable(t *testing.T) {
	for name, l := range recordedLogs(t) {
		if l.Final.DirectBranches == 0 || len(l.Points) < 2 {
			t.Fatalf("%s: %d branches, %d points", name, l.Final.DirectBranches, len(l.Points))
		}
		for what, bad := range badSiteTables(l) {
			if _, err := DecodeLogBytes(bad.Encode(testFingerprint), testFingerprint); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s, %s: decoded with %v, want ErrCorrupt", name, what, err)
			}
		}
	}
}

// decodeRoundTrip decodes one candidate file and checks the decoder's
// allocation bound and canonical re-encoding.
func decodeRoundTrip(t *testing.T, file []byte) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l, err := DecodeLogBytes(file, testFingerprint)
	runtime.ReadMemStats(&after)
	// A decoded point or page costs at most a few times its smallest
	// encoding; the slack covers the fixed-size allocations.
	if n := after.TotalAlloc - before.TotalAlloc; n > 8*uint64(len(file))+64<<10 {
		t.Fatalf("decoding %d bytes allocated %d", len(file), n)
	}
	if err != nil {
		return
	}
	if got := l.Encode(testFingerprint); !bytes.Equal(got, file) {
		t.Fatalf("decoded log re-encodes to %d different bytes (input %d)", len(got), len(file))
	}
}
