package ckpt

import (
	"bytes"
	"runtime"
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
// one recorded under the translator and one natively. Plain `go test` replays the
// seeds; `go test -fuzz FuzzDecodeLog` searches.
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
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeRoundTrip(t, data)
		decodeRoundTrip(t, frame.Seal(logMagic, []byte(testFingerprint), data))
	})
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
