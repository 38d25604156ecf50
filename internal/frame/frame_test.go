package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"repro/internal/fp"
)

const testMagic = "TESTMAG1"

func TestSealOpenRoundTrip(t *testing.T) {
	sections := [][]byte{
		[]byte("fingerprint|v1|demo"),
		{0x01, 0x02, 0x03},
		{}, // empty sections survive framing
	}
	buf := Seal(testMagic, sections...)
	got, err := Open(testMagic, buf)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if len(got) != len(sections) {
		t.Fatalf("sections = %d, want %d", len(got), len(sections))
	}
	for i := range sections {
		if !bytes.Equal(got[i], sections[i]) {
			t.Errorf("section %d = %x, want %x", i, got[i], sections[i])
		}
	}
}

func TestSealNoSections(t *testing.T) {
	buf := Seal(testMagic)
	got, err := Open(testMagic, buf)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("sections = %d, want 0", len(got))
	}
}

func TestOpenRejectsDamage(t *testing.T) {
	good := Seal(testMagic, []byte("identity"), []byte("payload bytes"))
	cases := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"short", func(b []byte) []byte { return b[:6] }},
		{"bad magic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			copy(c, "WRONGMAG")
			return c
		}},
		{"flipped payload byte", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(testMagic)+5] ^= 0x40
			return c
		}},
		{"flipped checksum", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-1] ^= 0x01
			return c
		}},
		{"truncated", func(b []byte) []byte {
			// Drop a tail byte and re-seal the checksum so only the
			// framing is wrong.
			c := append([]byte(nil), b[:len(b)-5]...)
			return appendChecksum(c)
		}},
		{"overlong frame", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			binary.LittleEndian.PutUint32(c[len(testMagic):], 1<<30)
			return appendChecksum(c[:len(c)-4])
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Open(testMagic, tc.mut(good))
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// appendChecksum re-seals a damaged body with a valid trailer, isolating
// framing errors from checksum errors.
func appendChecksum(body []byte) []byte {
	c := append([]byte(nil), body...)
	return binary.LittleEndian.AppendUint32(c, fp.Checksum(c))
}

func TestWriterReaderRoundTrip(t *testing.T) {
	w := NewWriter(64)
	w.U8(7)
	w.Bool(true)
	w.Bool(false)
	w.U32(0xdeadbeef)
	w.U64(1 << 40)
	w.I64(-12345)
	w.Bytes([]byte{9, 8, 7})
	w.String("hello")
	w.Words([]int32{-1, 0, 2_000_000})
	w.Words(nil)

	r := NewReader(w.Buf())
	if got := r.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := r.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.U64(); got != 1<<40 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.I64(); got != -12345 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte{9, 8, 7}) {
		t.Errorf("Bytes = %x", got)
	}
	if got := r.String(); got != "hello" {
		t.Errorf("String = %q", got)
	}
	if got := r.Words(); !reflect.DeepEqual(got, []int32{-1, 0, 2_000_000}) {
		t.Errorf("Words = %v", got)
	}
	if got := r.Words(); got != nil {
		t.Errorf("empty Words = %v, want nil", got)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

func TestReaderStickyOnTruncation(t *testing.T) {
	w := NewWriter(8)
	w.U32(1)
	r := NewReader(w.Buf())
	if got := r.U64(); got != 0 { // 8 bytes from a 4-byte payload
		t.Errorf("U64 past end = %d, want 0", got)
	}
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("Err = %v, want ErrCorrupt", r.Err())
	}
	// Every later read keeps returning zero values without panicking.
	if r.U32() != 0 || r.String() != "" || r.Words() != nil {
		t.Error("reads after failure must return zero values")
	}
	if err := r.Done(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Done = %v, want ErrCorrupt", err)
	}
}

func TestReaderBoundsHugeCount(t *testing.T) {
	w := NewWriter(8)
	w.U32(0xffffffff) // count that a naive make() would OOM on
	r := NewReader(w.Buf())
	if got := r.Words(); got != nil {
		t.Errorf("Words = %v, want nil", got)
	}
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("Err = %v, want ErrCorrupt", r.Err())
	}
}

func TestReaderDoneRejectsTrailing(t *testing.T) {
	w := NewWriter(8)
	w.U32(1)
	w.U8(0xcc) // trailing garbage the decoder never reads
	r := NewReader(w.Buf())
	_ = r.U32()
	if err := r.Done(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Done = %v, want ErrCorrupt", err)
	}
}

// Bool accepts only the two bytes Writer emits, so a decoded payload
// re-encodes to the same bytes.
func TestReaderBoolRejectsOtherBytes(t *testing.T) {
	r := NewReader([]byte{1, 0, 2})
	if !r.Bool() || r.Bool() {
		t.Fatal("0 and 1 did not decode")
	}
	if r.Bool() || !errors.Is(r.Err(), ErrCorrupt) {
		t.Errorf("byte 2 decoded without a corrupt error (err %v)", r.Err())
	}
}
