// Package frame implements the shared on-disk envelope of every
// versioned, checksummed cache encoding in the tree: an ASCII magic
// string (whose trailing digit is the format version), a sequence of
// u32-little-endian length-framed sections, and an IEEE CRC-32 trailer
// over everything before it. The checkpoint-log, campaign-cell and
// warm-artifact codecs all seal their payloads through this package, so
// the corrupt-vs-stale discipline is implemented once: Open rejects
// unreadable bytes (bad magic, bad checksum, bad framing — the corrupt
// class), while fingerprint comparison — the stale class — stays with the
// caller, who knows which section carries its identity.
//
// The package also provides the field-level Writer/Reader pair the
// binary payloads inside those sections are built from: little-endian
// fixed-width integers, length-framed byte strings and int32 word
// slices, with sticky bounded decoding so a corrupt length can neither
// drive a huge allocation nor read out of bounds.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/fp"
)

// ErrCorrupt marks an envelope whose bytes cannot be decoded: bad magic,
// checksum mismatch, or truncated/overlong framing. Callers typically
// wrap it in their own corrupt-class sentinel.
var ErrCorrupt = errors.New("frame: corrupt envelope")

// Seal builds the envelope: magic, each section length-framed in order,
// CRC-32 trailer over everything before it.
func Seal(magic string, sections ...[]byte) []byte {
	n := len(magic) + 4
	for _, s := range sections {
		n += 4 + len(s)
	}
	buf := make([]byte, 0, n)
	buf = append(buf, magic...)
	for _, s := range sections {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
		buf = append(buf, s...)
	}
	return binary.LittleEndian.AppendUint32(buf, fp.Checksum(buf))
}

// Open verifies the magic and the checksum and returns the framed
// sections. The sections alias buf; callers that outlive it must copy.
// Every error is corrupt-class (wraps ErrCorrupt) — fingerprint checks
// are the caller's, over whichever section carries identity.
func Open(magic string, buf []byte) ([][]byte, error) {
	if len(buf) < len(magic)+4 {
		return nil, fmt.Errorf("%w: %d bytes", ErrCorrupt, len(buf))
	}
	if string(buf[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, buf[:len(magic)])
	}
	body, tail := buf[:len(buf)-4], buf[len(buf)-4:]
	if got, want := fp.Checksum(body), binary.LittleEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("%w: checksum %08x, file says %08x", ErrCorrupt, got, want)
	}
	pos := len(magic)
	var sections [][]byte
	for pos < len(body) {
		if pos+4 > len(body) {
			return nil, fmt.Errorf("%w: truncated frame header at byte %d", ErrCorrupt, pos)
		}
		n := int(binary.LittleEndian.Uint32(body[pos:]))
		pos += 4
		if n < 0 || pos+n > len(body) {
			return nil, fmt.Errorf("%w: frame of %d bytes at byte %d", ErrCorrupt, n, pos)
		}
		sections = append(sections, body[pos:pos+n])
		pos += n
	}
	return sections, nil
}

// Writer serializes a binary payload into an in-memory buffer:
// little-endian fixed-width integers plus length-framed variable fields.
type Writer struct {
	buf []byte
}

// NewWriter returns a writer with the given initial capacity.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// Buf returns the accumulated payload.
func (w *Writer) Buf() []byte { return w.buf }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 appends a little-endian int64 (two's complement).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Bool appends a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Bytes appends a u32 length followed by the bytes.
func (w *Writer) Bytes(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a u32 length followed by the string bytes.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Words appends a u32 count followed by the int32 words.
func (w *Writer) Words(ws []int32) {
	w.U32(uint32(len(ws)))
	for _, v := range ws {
		w.U32(uint32(v))
	}
}

// Reader walks a binary payload written by Writer, failing sticky on the
// first out-of-bounds read: after an error every accessor returns zero
// and Err reports the first failure.
type Reader struct {
	buf []byte
	pos int
	err error
}

// NewReader returns a reader over the payload.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first decoding failure (nil while healthy).
func (r *Reader) Err() error { return r.err }

// Done reports whether the payload was consumed exactly: no error and no
// trailing bytes. Decoders call it after the last field so interior
// garbage with a valid checksum is still rejected.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.buf)-r.pos)
	}
	return nil
}

func (r *Reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w: payload truncated at byte %d", ErrCorrupt, r.pos)
	}
}

// Take returns the next n raw bytes (nil after a failure).
func (r *Reader) Take(n int) []byte {
	if r.err != nil || n < 0 || r.pos+n > len(r.buf) {
		r.fail()
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if b := r.Take(1); b != nil {
		return b[0]
	}
	return 0
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.Take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.Take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Bool reads one byte as a bool. Only Writer's two encodings, 0 and 1,
// decode; any other byte fails, so every decodable payload re-encodes to
// the same bytes.
func (r *Reader) Bool() bool {
	switch v := r.U8(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		r.err = fmt.Errorf("%w: bool byte %d at byte %d", ErrCorrupt, v, r.pos-1)
		return false
	}
}

// Count reads a u32 length and bounds it against the bytes remaining at
// unit size, so a corrupt length cannot drive a huge allocation.
func (r *Reader) Count(unit int) int {
	n := int(r.U32())
	if r.err == nil && n*unit > len(r.buf)-r.pos {
		r.fail()
		return 0
	}
	return n
}

// Bytes reads a length-framed byte field.
func (r *Reader) Bytes() []byte { return r.Take(r.Count(1)) }

// String reads a length-framed string field.
func (r *Reader) String() string { return string(r.Take(r.Count(1))) }

// Words reads a length-framed int32 word slice (nil when empty).
func (r *Reader) Words() []int32 {
	n := r.Count(4)
	if r.err != nil || n == 0 {
		return nil
	}
	ws := make([]int32, n)
	for i := range ws {
		ws[i] = int32(r.U32())
	}
	return ws
}
