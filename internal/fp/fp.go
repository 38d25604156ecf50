// Package fp holds the fingerprint and hashing helpers shared by every
// content-addressed cache in the tree: the session registry's checkpoint
// logs, the ckpt on-disk envelope and the campaign graph's cell entries.
// Two families live here:
//
//   - Checksum / Sanitize / FileName: the CRC-32 integrity checksum the
//     versioned encodings trail with, and the fingerprint→file-name
//     mapping cache directories use (readable fields sanitized plus a
//     hash of the exact fingerprint, so distinct keys never share a file
//     even when sanitizing collides).
//
//   - Hash / Program: a SHA-256 content-hash builder for cache keys that
//     must change whenever their inputs' bytes change — most importantly
//     Program, which fingerprints a built workload by everything that
//     influences its execution (name, entry point, data segment size and
//     the encoded instruction image).
package fp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"hash/crc32"
	"strings"

	"repro/internal/isa"
)

// Checksum is the integrity checksum of the on-disk encodings: CRC-32
// (IEEE) over the encoded payload, written as the file trailer and
// re-verified before any field is trusted.
func Checksum(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// Sanitize maps a fingerprint string to a filename-safe form: letters,
// digits, '.' and '-' pass through; everything else becomes '_'. The
// mapping is lossy, so file names must also embed a Checksum of the exact
// fingerprint (see FileName).
func Sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-':
			return r
		}
		return '_'
	}, s)
}

// FileName maps a cache-key fingerprint to its cache file name: the
// sanitized fingerprint plus a hash of the exact fingerprint and the
// given extension (including its dot).
func FileName(fingerprint, ext string) string {
	return Sanitize(fingerprint) + "_" + hexChecksum(fingerprint) + ext
}

// hexChecksum renders the fingerprint's checksum as fixed-width hex.
func hexChecksum(fingerprint string) string {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], Checksum([]byte(fingerprint)))
	return hex.EncodeToString(b[:])
}

// Hash accumulates content into a SHA-256 digest. Every field write is
// length-framed (strings) or fixed-width (integers), so distinct field
// sequences can never collide by concatenation.
type Hash struct {
	h hash.Hash
}

// NewHash returns an empty content hash.
func NewHash() *Hash { return &Hash{h: sha256.New()} }

// String folds a length-framed string into the hash.
func (h *Hash) String(s string) {
	h.U64(uint64(len(s)))
	h.h.Write([]byte(s))
}

// Bytes folds a length-framed byte slice into the hash.
func (h *Hash) Bytes(b []byte) {
	h.U64(uint64(len(b)))
	h.h.Write(b)
}

// U64 folds a fixed-width integer into the hash.
func (h *Hash) U64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.h.Write(b[:])
}

// Sum returns the accumulated digest as lowercase hex.
func (h *Hash) Sum() string { return hex.EncodeToString(h.h.Sum(nil)) }

// Program content-hashes a built workload: the fields that influence its
// execution and therefore any campaign result derived from it. Two
// programs with the same hash produce byte-identical campaigns under the
// same configuration; any change to the generator that alters the emitted
// code changes the hash and invalidates every cached cell keyed on it.
func Program(p *isa.Program) string {
	h := NewHash()
	h.String(p.Name)
	h.U64(uint64(p.Entry))
	h.U64(uint64(p.DataWords))
	if p.Target {
		h.U64(1)
	} else {
		h.U64(0)
	}
	// The image, length-framed as Bytes frames it, encoded a chunk at a
	// time instead of materialized.
	h.U64(uint64(len(p.Code)) * isa.InstrBytes)
	chunk := make([]byte, 0, 512*isa.InstrBytes)
	for code := p.Code; len(code) > 0; {
		k := min(len(code), cap(chunk)/isa.InstrBytes)
		h.h.Write(isa.AppendProgram(chunk[:0], code[:k]))
		code = code[k:]
	}
	return h.Sum()
}
