package dbt

import (
	"fmt"
	"sort"

	"repro/internal/comp"
	"repro/internal/isa"
)

// SnapshotState is the portable, plain-data image of a warm Snapshot:
// everything a fresh process needs to reconstruct the translated code
// cache, block map, chaining stubs and accumulated statistics without
// re-running the warm-up loop. It deliberately excludes the program (the
// artifact layer carries its content hash and the restoring process
// supplies its own copy) and the Options (interfaces — technique, policy,
// cost model — which the restorer rebuilds from its session key exactly
// as a local build would). The frozen compiled core is derived state: a
// deterministic function of the cache bytes, rebuilt on restore.
type SnapshotState struct {
	// Cache is the translated code cache.
	Cache []isa.Instr
	// Blocks holds every translated unit in cache (tlist) order.
	Blocks []BlockState
	// BlockMap maps guest start addresses to indices into Blocks, sorted
	// by guest address so the encoding of one snapshot is deterministic.
	BlockMap []BlockRef
	// Stubs are the pending/chained control transfers with their
	// profiling counters.
	Stubs []StubState
	// PendingCycles is translation cost accrued but not yet charged.
	PendingCycles uint64
	// Stats is the owning translator's accumulated work — the campaign
	// baseline per-sample deltas are added to.
	Stats Stats
	// CompStats is the compiled-backend baseline captured at the freeze
	// (zero for the step backend).
	CompStats comp.Stats
}

// BlockState is the plain-data form of one TBlock.
type BlockState struct {
	GuestStart  uint32
	GuestEnd    uint32
	CacheStart  uint32
	CacheEnd    uint32
	Checked     bool
	IsTrace     bool
	GuestBlocks []uint32
}

// BlockRef is one guest-address → translated-unit edge of the block map.
type BlockRef struct {
	Guest uint32
	Index uint32 // index into SnapshotState.Blocks
}

// StubState is the plain-data form of one chaining stub.
type StubState struct {
	Guest    uint32
	Slot     uint32
	Referrer uint32
	Count    int64
	BackEdge bool
	Chained  bool
}

// State extracts the portable image of the snapshot. It fails only on a
// structurally inconsistent snapshot (a block-map entry pointing at a
// unit absent from the block list), which would indicate a translator
// bug — callers treat an error as "do not publish".
func (s *Snapshot) State() (*SnapshotState, error) {
	st := &SnapshotState{
		Cache:         append([]isa.Instr(nil), s.cache...),
		Blocks:        make([]BlockState, len(s.tlist)),
		BlockMap:      make([]BlockRef, 0, len(s.blocks)),
		Stubs:         make([]StubState, len(s.stubs)),
		PendingCycles: s.pendingCycles,
		Stats:         s.stats,
		CompStats:     s.compStats,
	}
	index := make(map[*TBlock]uint32, len(s.tlist))
	for i, tb := range s.tlist {
		index[tb] = uint32(i)
		st.Blocks[i] = BlockState{
			GuestStart:  tb.GuestStart,
			GuestEnd:    tb.GuestEnd,
			CacheStart:  tb.CacheStart,
			CacheEnd:    tb.CacheEnd,
			Checked:     tb.Checked,
			IsTrace:     tb.IsTrace,
			GuestBlocks: append([]uint32(nil), tb.GuestBlocks...),
		}
	}
	for guest, tb := range s.blocks {
		i, ok := index[tb]
		if !ok {
			return nil, fmt.Errorf("dbt: snapshot state: block for guest 0x%x not in translation list", guest)
		}
		st.BlockMap = append(st.BlockMap, BlockRef{Guest: guest, Index: i})
	}
	sort.Slice(st.BlockMap, func(a, b int) bool { return st.BlockMap[a].Guest < st.BlockMap[b].Guest })
	for i, sb := range s.stubs {
		st.Stubs[i] = StubState{
			Guest:    sb.guest,
			Slot:     sb.slot,
			Referrer: sb.referrer,
			Count:    int64(sb.count),
			BackEdge: sb.backEdge,
			Chained:  sb.chained,
		}
	}
	return st, nil
}

// RestoreSnapshot reconstructs a warm Snapshot from a portable image, for
// program p under opts. The caller must supply the same program bytes and
// an Options equivalent to the one the snapshot was captured under (the
// artifact layer enforces both through its fingerprint); opts is
// normalized exactly as New normalizes it. For compiled backends a fresh
// engine is frozen over the restored cache — compiled cores are a
// deterministic function of the cache bytes, so restored campaigns run the
// exact code a locally-built snapshot would.
func RestoreSnapshot(p *isa.Program, opts Options, st *SnapshotState) (*Snapshot, error) {
	opts = normalizeOptions(opts)
	cache := append([]isa.Instr(nil), st.Cache...)
	tlist := make([]*TBlock, len(st.Blocks))
	for i, b := range st.Blocks {
		if b.CacheStart > b.CacheEnd || int(b.CacheEnd) > len(cache) {
			return nil, fmt.Errorf("dbt: restore: block %d cache range [0x%x,0x%x) outside cache of %d",
				i, b.CacheStart, b.CacheEnd, len(cache))
		}
		tlist[i] = &TBlock{
			GuestStart:  b.GuestStart,
			GuestEnd:    b.GuestEnd,
			CacheStart:  b.CacheStart,
			CacheEnd:    b.CacheEnd,
			Checked:     b.Checked,
			IsTrace:     b.IsTrace,
			GuestBlocks: append([]uint32(nil), b.GuestBlocks...),
		}
	}
	blocks := make(map[uint32]*TBlock, len(st.BlockMap))
	for _, ref := range st.BlockMap {
		if int(ref.Index) >= len(tlist) {
			return nil, fmt.Errorf("dbt: restore: block ref 0x%x -> %d outside %d blocks",
				ref.Guest, ref.Index, len(tlist))
		}
		blocks[ref.Guest] = tlist[ref.Index]
	}
	stubs := make([]stub, len(st.Stubs))
	for i, sb := range st.Stubs {
		if int(sb.Slot) >= len(cache) {
			return nil, fmt.Errorf("dbt: restore: stub %d slot 0x%x outside cache of %d", i, sb.Slot, len(cache))
		}
		stubs[i] = stub{
			guest:    sb.Guest,
			slot:     sb.Slot,
			referrer: sb.Referrer,
			count:    int(sb.Count),
			backEdge: sb.BackEdge,
			chained:  sb.Chained,
		}
	}
	s := &Snapshot{
		prog:          p,
		opts:          opts,
		cache:         cache,
		blocks:        blocks,
		tlist:         tlist,
		stubs:         stubs,
		pendingCycles: st.PendingCycles,
		stats:         st.Stats,
	}
	if opts.Backend.Compiled() {
		eng := comp.NewEngine(s.cache, opts.Costs, 0)
		eng.Freeze(compStartsFor(tlist, cache))
		s.comp = eng
		s.compStats = st.CompStats
	}
	return s, nil
}
