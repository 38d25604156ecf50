package ckpt

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dbt"
	"repro/internal/frame"

	"repro/internal/check"
)

const testFingerprint = "ckpt-t|1|RCF|CMOVcc|ALLBB|-1"

// recordedLogs produces one log per recorder so every encode test runs
// against both the translator and the native (static-baseline) shape.
func recordedLogs(t *testing.T) map[string]*Log {
	t.Helper()
	p := mustAssemble(t)
	snap := warmSnapshot(t, p, dbt.Options{Technique: &check.RCF{Style: dbt.UpdateCmov}})
	dl, err := Record(snap, 512, maxSteps)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := RecordStatic(p, nil, 512, maxSteps)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Log{"dbt": dl, "static": sl}
}

// The encoded format must round-trip every field, and a replayer over the
// decoded log must rebuild bit-identical machine state at every point.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	for name, l := range recordedLogs(t) {
		t.Run(name, func(t *testing.T) {
			raw := l.Encode(testFingerprint)
			got, err := DecodeLogBytes(raw, testFingerprint)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, l) {
				t.Fatalf("decoded log differs\n got: %+v\nwant: %+v", got, l)
			}
			// Machine reconstruction, not just field equality: the decoded
			// log must restore the same registers, flags, counters, memory
			// image and output prefix at every checkpoint. Memory and
			// output compare by contents: a pooled replayer's write
			// generations and output buffer are its own bookkeeping.
			orig, dec := l.NewReplayer(), got.NewReplayer()
			for k := range l.Points {
				a, b := dec.Machine(k), orig.Machine(k)
				if !slices.Equal(a.Mem.Snapshot(), b.Mem.Snapshot()) || !slices.Equal(a.Output, b.Output) {
					t.Fatalf("point %d: restored memory or output differs", k)
				}
				ma, mb := *a, *b
				ma.Mem, mb.Mem, ma.Output, mb.Output = nil, nil, nil, nil
				if !reflect.DeepEqual(ma, mb) {
					t.Fatalf("point %d: restored machine differs", k)
				}
			}
		})
	}
}

// Any unreadable byte stream — wrong magic, flipped bits, truncation,
// bytes bolted onto either end — must come back as ErrCorrupt so callers
// fall back to re-recording instead of trusting garbage.
func TestDecodeRejectsCorrupt(t *testing.T) {
	l := recordedLogs(t)["dbt"]
	raw := l.Encode(testFingerprint)

	cases := map[string][]byte{
		"empty":     {},
		"short":     raw[:6],
		"truncated": raw[:len(raw)/2],
		"appended":  append(append([]byte{}, raw...), 0xde, 0xad),
	}
	badMagic := append([]byte{}, raw...)
	badMagic[0] ^= 0xff
	cases["bad magic"] = badMagic
	flipped := append([]byte{}, raw...)
	flipped[len(flipped)/2] ^= 0x01
	cases["flipped byte"] = flipped

	for name, b := range cases {
		if _, err := DecodeLogBytes(b, testFingerprint); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error %v, want ErrCorrupt", name, err)
		}
	}
}

// A clean decode under the wrong fingerprint is stale, not corrupt: the
// bytes are fine but belong to a different configuration.
func TestDecodeRejectsStaleFingerprint(t *testing.T) {
	for name, l := range recordedLogs(t) {
		raw := l.Encode(testFingerprint)
		if _, err := DecodeLogBytes(raw, "other|config"); !errors.Is(err, ErrStale) {
			t.Errorf("%s: error %v, want ErrStale", name, err)
		}
		if _, err := DecodeLogBytes(raw, testFingerprint); err != nil {
			t.Errorf("%s: correct fingerprint rejected: %v", name, err)
		}
	}
}

// Interior extra bytes with a valid checksum must still be rejected (the
// decoder demands the body section end exactly where the fields do).
func TestDecodeRejectsTrailingPayload(t *testing.T) {
	l := recordedLogs(t)["static"]
	padded := frame.Seal(logMagic, []byte(testFingerprint), append(l.encodeBody(), 0, 0, 0, 0))
	if _, err := DecodeLogBytes(padded, testFingerprint); !errors.Is(err, ErrCorrupt) {
		t.Errorf("error %v, want ErrCorrupt", err)
	}
}
