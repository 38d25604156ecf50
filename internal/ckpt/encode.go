package ckpt

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/cpu"
	"repro/internal/dbt"
	"repro/internal/frame"
	"repro/internal/isa"
	"repro/internal/mem"
)

// logMagic identifies the encoded checkpoint-log format; the trailing
// digit is the version (see the package documentation for the layout).
// Version 2 moved the envelope onto the shared frame.Seal layout: the
// fingerprint and the binary body are two framed sections instead of the
// version-1 fingerprint-then-unframed-body arrangement. Version 3 adds the
// site table, the code length and every point's site offset. Older logs
// decode as corrupt.
const logMagic = "CFCKLOG3"

// ErrCorrupt marks an encoded checkpoint log whose bytes cannot be
// decoded: bad magic, checksum mismatch, or a truncated/overlong payload.
var ErrCorrupt = errors.New("ckpt: corrupt checkpoint log")

// ErrStale marks an encoded checkpoint log that decodes cleanly but was
// recorded for a different configuration (fingerprint mismatch).
var ErrStale = errors.New("ckpt: stale checkpoint log")

// MinAutoInterval is the floor of an auto-sized capture spacing, in
// steps: it keeps small programs from spending more on captures than they
// save on restores.
const MinAutoInterval = 512

// AutoInterval maps the CkptInterval knob to a capture spacing in steps:
// positive values are explicit, zero or negative auto-sizes to ~256
// checkpoints over the clean run, at least MinAutoInterval apart.
func AutoInterval(knob int64, cleanSteps uint64) uint64 {
	if knob > 0 {
		return uint64(knob)
	}
	return max(cleanSteps/256, MinAutoInterval)
}

func encodeState(w *frame.Writer, st *cpu.State) {
	for _, r := range st.Regs {
		w.U32(uint32(r))
	}
	w.U8(uint8(st.Flags))
	w.U32(st.IP)
	w.U64(st.Cycles)
	w.U64(st.Steps)
	w.U64(st.DirectBranches)
	w.U64(st.IndirectBranches)
	w.U64(st.SigChecks)
}

func encodeStats(w *frame.Writer, s *dbt.Stats) {
	w.I64(int64(s.BlocksTranslated))
	w.U64(s.GuestInstrsTranslated)
	w.I64(int64(s.TracesFormed))
	w.U64(s.Dispatches)
	w.U64(s.IndirectLookups)
	w.I64(int64(s.Invalidations))
	w.I64(int64(s.CheckSites))
}

// encodeBody serializes the log fields into the binary section of the
// envelope (everything except the magic, fingerprint and checksum, which
// frame.Seal supplies).
func (l *Log) encodeBody() []byte {
	w := frame.NewWriter(64 + int(l.Bytes))
	w.U64(l.Interval)
	w.U32(l.MemWords)
	w.Bool(l.Truncated)
	w.U32(uint32(l.Stop.Reason))
	w.U32(l.Stop.IP)
	w.String(l.Stop.Detail)
	w.I64(int64(l.CacheSize))
	w.U32(l.CodeLen)
	w.U64(l.Bytes)
	encodeState(w, &l.Final)
	encodeStats(w, &l.FinalPrefix)
	w.Words(l.Output)
	w.Bytes(l.Sites)
	w.U32(uint32(len(l.Points)))
	for i := range l.Points {
		pt := &l.Points[i]
		encodeState(w, &pt.State)
		w.U32(uint32(pt.OutLen))
		w.U32(pt.SiteOffset)
		encodeStats(w, &pt.Prefix)
		w.U32(uint32(len(pt.Pages)))
		for _, pg := range pt.Pages {
			w.U32(pg.Index)
			w.Words(pg.Words)
		}
	}
	return w.Buf()
}

// Encode renders the log in the versioned, checksummed format documented
// at the package level: a logMagic envelope whose two framed sections are
// the fingerprint and the binary body. fingerprint is an opaque identity
// string (the artifact fingerprint) that DecodeLogBytes will demand back.
func (l *Log) Encode(fingerprint string) []byte {
	return frame.Seal(logMagic, []byte(fingerprint), l.encodeBody())
}

func decodeState(r *frame.Reader, st *cpu.State) {
	for i := range st.Regs {
		st.Regs[i] = int32(r.U32())
	}
	st.Flags = isa.Flags(r.U8())
	st.IP = r.U32()
	st.Cycles = r.U64()
	st.Steps = r.U64()
	st.DirectBranches = r.U64()
	st.IndirectBranches = r.U64()
	st.SigChecks = r.U64()
}

func decodeStats(r *frame.Reader, s *dbt.Stats) {
	s.BlocksTranslated = int(r.I64())
	s.GuestInstrsTranslated = r.U64()
	s.TracesFormed = int(r.I64())
	s.Dispatches = r.U64()
	s.IndirectLookups = r.U64()
	s.Invalidations = int(r.I64())
	s.CheckSites = int(r.I64())
}

// minPointBytes is the smallest encoding of one point: its state, output
// length, site offset, stats and page count with no pages. Bounding the
// point count at this unit keeps the Points allocation proportional to
// the input.
const minPointBytes = isa.NumRegs*4 + 1 + 4 + 5*8 + 4 + 4 + 7*8 + 4

// decodeBody reads the fields written by encodeBody, and rejects a log
// whose points a Replayer could not apply (an output prefix longer than
// the output, or a page outside memory) or whose site table a reader
// could not decode (see checkSites).
func decodeBody(body []byte) (*Log, error) {
	r := frame.NewReader(body)
	l := &Log{}
	l.Interval = r.U64()
	l.MemWords = r.U32()
	l.Truncated = r.Bool()
	l.Stop.Reason = cpu.StopReason(r.U32())
	l.Stop.IP = r.U32()
	l.Stop.Detail = r.String()
	l.CacheSize = int(r.I64())
	l.CodeLen = r.U32()
	l.Bytes = r.U64()
	decodeState(r, &l.Final)
	decodeStats(r, &l.FinalPrefix)
	l.Output = r.Words()
	if sites := r.Bytes(); len(sites) > 0 {
		l.Sites = bytes.Clone(sites)
	}
	npoints := r.Count(minPointBytes)
	if r.Err() == nil && npoints > 0 {
		l.Points = make([]Point, npoints)
	}
	for i := 0; i < npoints && r.Err() == nil; i++ {
		pt := &l.Points[i]
		decodeState(r, &pt.State)
		pt.OutLen = int(r.U32())
		pt.SiteOffset = r.U32()
		decodeStats(r, &pt.Prefix)
		npages := r.Count(8)
		if r.Err() == nil && npages > 0 {
			pt.Pages = make([]Page, npages)
		}
		for j := 0; j < npages && r.Err() == nil; j++ {
			pg := &pt.Pages[j]
			pg.Index = r.U32()
			pg.Words = r.Words()
			// A page is whole: PageWords words, or the rest of memory for
			// the final one. A replayer's page table references it as the
			// page's full contents.
			if lo := uint64(pg.Index) << mem.PageShift; lo >= uint64(l.MemWords) ||
				uint64(len(pg.Words)) != min(mem.PageWords, uint64(l.MemWords)-lo) {
				return nil, fmt.Errorf("%w: point %d page %d (%d words) is not a whole page of %d words of memory",
					ErrCorrupt, i, pg.Index, len(pg.Words), l.MemWords)
			}
		}
		if pt.OutLen > len(l.Output) {
			return nil, fmt.Errorf("%w: point %d output prefix %d exceeds the %d-word output",
				ErrCorrupt, i, pt.OutLen, len(l.Output))
		}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if err := l.checkSites(); err != nil {
		return nil, err
	}
	return l, nil
}

// DecodeLogBytes reads a log written by Encode, verifying the magic, the
// CRC-32 checksum and the fingerprint before trusting any field. It
// returns ErrCorrupt for unreadable bytes and ErrStale when the bytes
// decode but were recorded under a different fingerprint; callers fall
// back to re-recording on either.
func DecodeLogBytes(buf []byte, fingerprint string) (*Log, error) {
	sections, err := frame.Open(logMagic, buf)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if len(sections) != 2 {
		return nil, fmt.Errorf("%w: %d sections, want 2", ErrCorrupt, len(sections))
	}
	if got := string(sections[0]); got != fingerprint {
		return nil, fmt.Errorf("%w: fingerprint %q, want %q", ErrStale, got, fingerprint)
	}
	return decodeBody(sections[1])
}
