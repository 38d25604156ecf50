package dbt

import (
	"repro/internal/comp"
	"repro/internal/isa"
)

// Snapshot is a frozen copy of a translator's warm state: the code cache,
// the guest-to-translation map, the cache-ordered block list, the chaining
// stubs (including their profiling counters) and the accumulated stats.
// Snapshots exist so that fault-injection campaigns can fan samples across
// goroutines without each worker re-running the warm-up loop: every worker
// primes a private DBT from the snapshot and starts with the fully
// translated, chained and trace-formed cache.
//
// A Snapshot is immutable and safe for concurrent use. TBlocks are shared
// by pointer between the snapshot and every DBT primed from it — they are
// never mutated after translation. The cache, tlist and stub slices are
// copied on capture and shared copy-on-write with every clone: clones
// alias them through capacity-capped slices, so new translations of wild
// branch targets append into private arrays, and the in-place writes of
// dispatch and chaining (stub counters, stub and branch patches) copy the
// slice first (see own). The block map is shared the same way: clones
// reference it read-only and materialize a private copy only when a run
// actually translates something new (see DBT.setBlock).
type Snapshot struct {
	prog          *isa.Program
	opts          Options
	cache         []isa.Instr
	blocks        map[uint32]*TBlock
	tlist         []*TBlock
	stubs         []stub
	pendingCycles uint64
	stats         Stats

	// comp is the frozen block-compiled engine over the snapshot cache
	// (nil for the step backend): every entry point is eagerly
	// compiled and chain-resolved at capture, and clones share the
	// compiled core read-only through per-clone views.
	comp *comp.Engine
	// compStats is the owning translator's compiled-backend work up to and
	// including the eager freeze — the campaign-level baseline, mirroring
	// Stats() for translator work.
	compStats comp.Stats
}

// Snapshot captures the translator's current state. Call it between Run
// calls (typically after the warm-up runs have stabilized the cache).
func (d *DBT) Snapshot() *Snapshot {
	s := &Snapshot{
		prog:          d.prog,
		opts:          d.opts,
		cache:         append([]isa.Instr(nil), d.cache...),
		tlist:         append([]*TBlock(nil), d.tlist...),
		stubs:         append([]stub(nil), d.stubs...),
		pendingCycles: d.pendingCycles,
		stats:         d.stats,
	}
	if d.comp != nil {
		// Freeze the compiled core: eagerly compile every entry point the
		// cache can transfer to, resolve all chain slots, and make the
		// core immutable so clones share it without synchronization. The
		// freeze also stops the owner's adaptive tier — a snapshot is
		// taken when the cache has stabilized, so nothing is lost.
		d.comp.Sync(d.cache)
		d.comp.Freeze(d.compStarts())
		s.comp = d.comp
		s.compStats = d.comp.Stats
	}
	if d.blocks == nil {
		// The clone never materialized a private map; the shared one is
		// already immutable and can be adopted as-is.
		s.blocks = d.snapBlocks
	} else {
		s.blocks = make(map[uint32]*TBlock, len(d.blocks))
		for g, tb := range d.blocks {
			s.blocks[g] = tb
		}
	}
	return s
}

// compStarts collects every cache address block-compiled execution can
// enter: translated-unit starts, fall-throughs past a terminator (the
// technique tails emit several internal basic blocks per translated
// unit — check branches, report paths, chaining stubs) and direct-branch
// targets. A signature-check guard (comp.Guard) ends no block, so its
// report and its continuation are left out: they are entered only through
// the guard. Freezing over this set means a warm campaign's samples never
// fall back to the interpreter on a hot path.
func (d *DBT) compStarts() []uint32 {
	return compStartsFor(d.tlist, d.cache)
}

// compStartsFor is compStarts over explicit state, shared with snapshot
// restoration (which freezes a fresh engine over a deserialized cache).
func compStartsFor(tlist []*TBlock, cache []isa.Instr) []uint32 {
	starts := make([]uint32, 0, len(tlist)+len(cache)/4)
	for _, tb := range tlist {
		starts = append(starts, tb.CacheStart)
	}
	for addr, in := range cache {
		if a := uint32(addr); comp.Guard(cache, a) || (a > 0 && comp.Guard(cache, a-1)) {
			continue
		}
		if in.Op.IsTerminator() && addr+1 < len(cache) {
			starts = append(starts, uint32(addr+1))
		}
		if in.Op.IsDirectBranch() {
			starts = append(starts, in.Target(uint32(addr)))
		}
	}
	return starts
}

// CacheLen returns the snapshot's code cache size in instructions.
func (s *Snapshot) CacheLen() int { return len(s.cache) }

// Code returns the snapshot's code cache, shared read-only: the code a
// clone executes until it translates something new.
func (s *Snapshot) Code() []isa.Instr { return s.cache[:len(s.cache):len(s.cache)] }

// CompStats returns the compiled-backend work accumulated by the owning
// translator up to the snapshot freeze (zero for the step backend) —
// the baseline campaigns add per-sample deltas to.
func (s *Snapshot) CompStats() comp.Stats { return s.compStats }

// Stats returns the translator statistics captured with the snapshot —
// the baseline a clone's final stats are diffed against to recover one
// sample's own translation work.
func (s *Snapshot) Stats() Stats { return s.stats }

// NewDBT returns a fresh translator primed with the snapshot state: warm
// runs on it skip translation exactly as on the snapshotted instance, and
// any mutation (chaining under a faulty run, new translations) stays local
// to the returned DBT. Nothing is copied up front: the clone shares the
// snapshot's cache, tlist, stubs and block map, and copies each only when
// it first changes it — capacity-capped slices make appends copy, own
// guards in-place writes, and DBT.setBlock materializes the map. Most
// fault-injection samples never dispatch, so they copy nothing.
func (s *Snapshot) NewDBT() *DBT { return s.NewDBTOn(s.opts.Backend) }

// NewDBTOn is NewDBT for a run on backend b. The step backend clones the
// snapshot without its compiled view, so the clone interprets every step
// and counts no compiled work, exactly as a clone of a snapshot warmed on
// the step backend does; a compiled b keeps the snapshot's own backend.
func (s *Snapshot) NewDBTOn(b comp.Backend) *DBT {
	d := &DBT{
		prog:          s.prog,
		opts:          s.opts,
		tech:          s.opts.Technique,
		cache:         s.cache[:len(s.cache):len(s.cache)],
		snapBlocks:    s.blocks,
		tlist:         s.tlist[:len(s.tlist):len(s.tlist)],
		stubs:         s.stubs[:len(s.stubs):len(s.stubs)],
		cacheShared:   true,
		stubsShared:   true,
		pendingCycles: s.pendingCycles,
		stats:         s.stats,
	}
	if !b.Compiled() {
		d.opts.Backend = b
	} else if s.comp != nil {
		// A per-clone view over the frozen compiled core: fresh stats, own
		// retired set, aliased onto the clone's cache (re-aliased at every
		// Advance, so it follows the clone's copy once it owns one). A
		// clone that patches its cache under compiled blocks retires just
		// those for its own view and compiles the patched code privately;
		// the shared core and every other sample are untouched.
		d.comp = s.comp.Clone()
		d.comp.Sync(d.cache)
	}
	return d
}
