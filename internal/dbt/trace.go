package dbt

// Hot-trace backend: the frontend counts dispatches through back-edge
// stubs; when a loop head gets hot, the backend re-emits the loop body as a
// straight-line superblock. Blocks linked by unconditional transfers or by
// conditional fall-throughs become seamless (no jump, no stub) while side
// exits keep their chaining stubs. Per-block instrumentation is re-emitted
// intact, so the signature invariants of the checking techniques hold
// inside traces exactly as outside.

// maxTraceBlocks caps superblock length.
const maxTraceBlocks = 8

// formTrace builds a superblock starting at the hot loop head. It returns
// nil when no profitable trace exists (e.g. the head block ends in an
// indirect branch).
func (d *DBT) formTrace(head uint32) *TBlock {
	type piece struct {
		guest uint32
		end   uint32
		term  TermInfo
	}
	var pieces []piece
	seen := map[uint32]bool{}
	cur := head
	for len(pieces) < maxTraceBlocks {
		if seen[cur] || !d.prog.Contains(cur) {
			break
		}
		end, term := d.scanBlock(cur)
		pieces = append(pieces, piece{cur, end, term})
		seen[cur] = true
		// Follow the straight-line continuation.
		var next uint32
		switch term.Kind {
		case TermJmp:
			next = term.Taken
		case TermFall:
			next = term.Fall
		case TermCond:
			if term.Taken == term.Fall {
				// Degenerate branch; a seamless fall-through would also
				// swallow the taken exit. Stop here.
				next = cur
			} else {
				next = term.Fall
			}
		default:
			next = cur // calls/indirects/halt end the trace
		}
		if next == cur || seen[next] {
			break
		}
		cur = next
	}
	if len(pieces) < 2 {
		return nil // nothing to merge
	}

	tb := &TBlock{
		GuestStart: head,
		GuestEnd:   pieces[0].end,
		CacheStart: uint32(len(d.cache)),
		IsTrace:    true,
	}
	e := &Emitter{d: d}
	for i, pc := range pieces {
		tb.GuestBlocks = append(tb.GuestBlocks, pc.guest)
		if i+1 < len(pieces) {
			// The next piece is emitted immediately after: its entry
			// transfer may be elided.
			e.armFallthrough(pieces[i+1].guest)
		}
		d.emitOne(e, pc.guest, pc.end, pc.term)
		e.suppressValid = false // safety: suppression never leaks
		d.stats.GuestInstrsTranslated += uint64(pc.end - pc.guest)
	}
	tb.CacheEnd = uint32(len(d.cache))
	tb.Checked = true
	d.tlist = append(d.tlist, tb)
	// Future transfers to the loop head land on the trace. Translations of
	// the interior blocks keep their standalone versions for side entries.
	d.setBlock(head, tb)
	d.stats.TracesFormed++
	d.pendingCycles += uint64(d.opts.Costs.TranslateUnit) * uint64(tb.CacheEnd-tb.CacheStart)
	return tb
}
