// Package artifact implements the distributed warm-artifact tier: the
// portable serialization of a session's warm state — the translator
// snapshot (code cache, block map, chaining stubs, accumulated stats)
// plus the recorded checkpoint log and clean-run geometry — in the
// versioned, length-framed, CRC-32-checksummed envelope the other cache
// encodings share (internal/frame), fingerprinted by session key and
// engine/technique versions.
//
// Around the codec sit a content-addressed Store (SHA-256
// digest-addressed blobs plus fingerprint→digest refs, memory always and
// a directory when configured), a small HTTP server over a store, and a
// verified-fetch Client with pull-through local caching. The trust model
// follows the trusted-repository/checksummed-binary pattern: a fetched
// blob is accepted only when its bytes hash to the digest the ref named
// AND the decoded envelope carries the exact fingerprint the client
// derived locally; any failure — network error, digest mismatch, corrupt
// envelope, stale fingerprint — degrades to a local build, never to an
// error and never into the session registry.
package artifact

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/dbt"
	"repro/internal/fp"
	"repro/internal/frame"
	"repro/internal/graph"
	"repro/internal/isa"
)

// Version invalidates every artifact at once; bump it when the encoding
// or the meaning of a serialized field changes.
const Version = 1

// artifactMagic identifies the on-disk/wire artifact format; the trailing
// digit is the envelope version. The envelope is frame.Seal with four
// sections: fingerprint, header, snapshot (empty for static sessions)
// and checkpoint log (empty when the session replays).
const artifactMagic = "CFCARTF1"

// ErrCorrupt marks artifact bytes that cannot be decoded.
var ErrCorrupt = errors.New("artifact: corrupt artifact")

// ErrStale marks an artifact that decodes cleanly but was built for a
// different fingerprint (program bytes, configuration or version).
var ErrStale = errors.New("artifact: stale artifact")

// Artifact is one session's portable warm state.
type Artifact struct {
	// Key is the session-key fingerprint (session.Key.String()).
	Key string
	// ProgramHash is fp.Program of the built workload the state was
	// captured over; the restoring process rebuilds the program itself.
	ProgramHash string
	// MaxSteps is the registry's clean/reference-run step bound the state
	// was built under.
	MaxSteps uint64
	// CleanSteps is the clean reference run's length in steps.
	CleanSteps uint64
	// Static marks a native (no-translator) baseline session: Snapshot is
	// nil and the restoring process re-instruments the program locally.
	Static bool
	// Snapshot is the translator's warm state (nil for static sessions).
	Snapshot *dbt.SnapshotState
	// Log is the session's recorded checkpoint log. Every session records
	// one, so the same artifact serves both engines.
	Log *ckpt.Log
}

// Fingerprint derives the identity string sealed into an artifact: the
// artifact and engine/technique versions (shared with the campaign
// graph, so semantics changes invalidate both tiers together), the
// session key, the program content hash and the step bound. technique is
// the canonical label ("RCF", "CFCSS", ...).
func Fingerprint(key, technique, programHash string, maxSteps uint64) string {
	return fmt.Sprintf("artifact|v%d|e%d|t:%s.%d|%s|prog:%s|max:%d",
		Version, graph.EngineVersion, technique, graph.TechniqueVersion(technique),
		key, programHash, maxSteps)
}

// Digest content-addresses a blob: SHA-256 as lowercase hex.
func Digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// RefID maps a fingerprint to its ref name in the store: a SHA-256 of
// the fingerprint, so ref names are fixed-width, path-safe and leak no
// configuration detail into URLs.
func RefID(fingerprint string) string {
	h := fp.NewHash()
	h.String(fingerprint)
	return h.Sum()
}

// Encode seals the artifact under its fingerprint.
func (a *Artifact) Encode(fingerprint string) []byte {
	h := frame.NewWriter(64)
	h.String(a.Key)
	h.String(a.ProgramHash)
	h.U64(a.MaxSteps)
	h.U64(a.CleanSteps)
	h.Bool(a.Static)
	var snap, log []byte
	if a.Snapshot != nil {
		snap = encodeSnapshot(a.Snapshot)
	}
	if a.Log != nil {
		log = a.Log.Encode(fingerprint)
	}
	return frame.Seal(artifactMagic, []byte(fingerprint), h.Buf(), snap, log)
}

// Decode reads an artifact sealed by Encode, verifying the magic, the
// checksum and the fingerprint before trusting any field. It returns
// ErrCorrupt for unreadable bytes and ErrStale when the bytes decode but
// carry a different fingerprint; callers fall back to a local build on
// either.
func Decode(buf []byte, fingerprint string) (*Artifact, error) {
	sections, err := frame.Open(artifactMagic, buf)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if len(sections) != 4 {
		return nil, fmt.Errorf("%w: %d sections, want 4", ErrCorrupt, len(sections))
	}
	if got := string(sections[0]); got != fingerprint {
		return nil, fmt.Errorf("%w: fingerprint %q, want %q", ErrStale, got, fingerprint)
	}
	a := &Artifact{}
	h := frame.NewReader(sections[1])
	a.Key = h.String()
	a.ProgramHash = h.String()
	a.MaxSteps = h.U64()
	a.CleanSteps = h.U64()
	a.Static = h.Bool()
	if err := h.Done(); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrCorrupt, err)
	}
	if len(sections[2]) > 0 {
		if a.Snapshot, err = decodeSnapshot(sections[2]); err != nil {
			return nil, err
		}
	}
	if len(sections[3]) > 0 {
		// The nested log was sealed under the same fingerprint, which the
		// outer envelope already proved; any failure here is corruption.
		if a.Log, err = ckpt.DecodeLogBytes(sections[3], fingerprint); err != nil {
			return nil, fmt.Errorf("%w: log: %v", ErrCorrupt, err)
		}
	}
	if a.Static == (a.Snapshot != nil) {
		return nil, fmt.Errorf("%w: static=%v with snapshot=%v", ErrCorrupt, a.Static, a.Snapshot != nil)
	}
	return a, nil
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

func decodeStats(r *frame.Reader, s *dbt.Stats) {
	s.BlocksTranslated = int(r.I64())
	s.GuestInstrsTranslated = r.U64()
	s.TracesFormed = int(r.I64())
	s.Dispatches = r.U64()
	s.IndirectLookups = r.U64()
	s.Invalidations = int(r.I64())
	s.CheckSites = int(r.I64())
}

// encodeSnapshot serializes the portable snapshot image into the
// artifact's snapshot section.
func encodeSnapshot(st *dbt.SnapshotState) []byte {
	w := frame.NewWriter(64 + len(st.Cache)*isa.InstrBytes)
	w.Bytes(isa.EncodeProgram(st.Cache))
	w.U32(uint32(len(st.Blocks)))
	for i := range st.Blocks {
		b := &st.Blocks[i]
		w.U32(b.GuestStart)
		w.U32(b.GuestEnd)
		w.U32(b.CacheStart)
		w.U32(b.CacheEnd)
		w.Bool(b.Checked)
		w.Bool(b.IsTrace)
		w.U32(uint32(len(b.GuestBlocks)))
		for _, g := range b.GuestBlocks {
			w.U32(g)
		}
	}
	w.U32(uint32(len(st.BlockMap)))
	for _, ref := range st.BlockMap {
		w.U32(ref.Guest)
		w.U32(ref.Index)
	}
	w.U32(uint32(len(st.Stubs)))
	for i := range st.Stubs {
		s := &st.Stubs[i]
		w.U32(s.Guest)
		w.U32(s.Slot)
		w.U32(s.Referrer)
		w.I64(s.Count)
		w.Bool(s.BackEdge)
		w.Bool(s.Chained)
	}
	w.U64(st.PendingCycles)
	encodeStats(w, &st.Stats)
	w.U64(st.CompStats.BlocksCompiled)
	w.U64(st.CompStats.TracePromotions)
	w.U64(st.CompStats.ChainHits)
	return w.Buf()
}

// decodeSnapshot reads the snapshot section.
func decodeSnapshot(buf []byte) (*dbt.SnapshotState, error) {
	r := frame.NewReader(buf)
	st := &dbt.SnapshotState{}
	image := r.Bytes()
	if r.Err() == nil {
		cache, err := isa.DecodeProgram(image)
		if err != nil {
			return nil, fmt.Errorf("%w: cache: %v", ErrCorrupt, err)
		}
		st.Cache = cache
	}
	nblocks := r.Count(18) // 4×u32 + 2 bools + count
	if r.Err() == nil && nblocks > 0 {
		st.Blocks = make([]dbt.BlockState, nblocks)
	}
	for i := 0; i < nblocks && r.Err() == nil; i++ {
		b := &st.Blocks[i]
		b.GuestStart = r.U32()
		b.GuestEnd = r.U32()
		b.CacheStart = r.U32()
		b.CacheEnd = r.U32()
		b.Checked = r.Bool()
		b.IsTrace = r.Bool()
		ng := r.Count(4)
		if r.Err() == nil && ng > 0 {
			b.GuestBlocks = make([]uint32, ng)
		}
		for j := 0; j < ng && r.Err() == nil; j++ {
			b.GuestBlocks[j] = r.U32()
		}
	}
	nrefs := r.Count(8)
	if r.Err() == nil && nrefs > 0 {
		st.BlockMap = make([]dbt.BlockRef, nrefs)
	}
	for i := 0; i < nrefs && r.Err() == nil; i++ {
		st.BlockMap[i].Guest = r.U32()
		st.BlockMap[i].Index = r.U32()
	}
	nstubs := r.Count(22) // 3×u32 + i64 + 2 bools
	if r.Err() == nil && nstubs > 0 {
		st.Stubs = make([]dbt.StubState, nstubs)
	}
	for i := 0; i < nstubs && r.Err() == nil; i++ {
		s := &st.Stubs[i]
		s.Guest = r.U32()
		s.Slot = r.U32()
		s.Referrer = r.U32()
		s.Count = r.I64()
		s.BackEdge = r.Bool()
		s.Chained = r.Bool()
	}
	st.PendingCycles = r.U64()
	decodeStats(r, &st.Stats)
	st.CompStats.BlocksCompiled = r.U64()
	st.CompStats.TracePromotions = r.U64()
	st.CompStats.ChainHits = r.U64()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: snapshot: %v", ErrCorrupt, err)
	}
	return st, nil
}
