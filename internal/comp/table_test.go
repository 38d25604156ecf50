package comp

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
)

// TestBlockTablePages drives the by-address page table across a page
// boundary: entries at 255, 256 and 257 land on two pages, a nil set
// allocates none, addresses at or past the mapped range read nil, growth
// keeps every entry and reset drops every page.
func TestBlockTablePages(t *testing.T) {
	var tab blockTable
	tab.grow(600)
	want := map[uint32]*cblock{}
	for _, a := range []uint32{255, 256, 257} {
		if tab.get(a) != nil {
			t.Fatalf("empty table maps %d", a)
		}
		want[a] = &cblock{start: a}
		tab.set(a, want[a])
	}
	tab.set(599, nil)
	for a, b := range want {
		if got := tab.get(a); got != b {
			t.Errorf("get(%d) = %v, want the block set there", a, got)
		}
	}
	for _, a := range []uint32{0, 254, 258, 511, 599, 600, 601, 1 << 20, ^uint32(0)} {
		if got := tab.get(a); got != nil {
			t.Errorf("get(%d) = %v, want nil", a, got)
		}
	}
	if n := tab.pageCount(); n != 2 {
		t.Errorf("%d pages allocated, want 2 (for 255 and for 256-257)", n)
	}

	tab.set(256, nil)
	tab.grow(1000)
	if tab.get(256) != nil || tab.get(255) != want[255] || tab.get(257) != want[257] || tab.get(999) != nil || tab.get(1000) != nil {
		t.Error("clearing 256 and growing to 1000 lost or invented an entry")
	}
	tab.set(999, want[255])
	if tab.get(999) != want[255] || len(tab.pages) != 4 {
		t.Errorf("grown table: get(999) = %v over %d pages, want the block over 4", tab.get(999), len(tab.pages))
	}

	tab.reset()
	if tab.pageCount() != 0 || tab.n != 1000 {
		t.Errorf("reset keeps %d pages over %d addresses, want 0 over 1000", tab.pageCount(), tab.n)
	}
}

// TestEngineTableTracksCode checks the table through the engine: Sync
// growth keeps compiled blocks, a shrink empties the table (and disables a
// frozen view), and Redecode clears the entries of the blocks it drops.
func TestEngineTableTracksCode(t *testing.T) {
	p := engineProgram(t)
	code := append([]isa.Instr(nil), p.Code...)
	run := func(e *Engine) {
		t.Helper()
		m := cpu.New()
		m.Reset(p)
		if stop := e.Run(m, e.code, testMaxSteps); stop.Reason != cpu.StopHalt {
			t.Fatalf("clean run: %v", stop)
		}
	}
	mapped := func(e *Engine) []uint32 {
		var starts []uint32
		for a := uint32(0); a < e.c.byAddr.n; a++ {
			if b := e.c.byAddr.get(a); b != nil {
				if b.start != a {
					t.Fatalf("block at %d maps address %d", b.start, a)
				}
				starts = append(starts, a)
			}
		}
		return starts
	}

	e := NewEngine(code, nil, 1)
	run(e)
	before := mapped(e)
	if len(before) == 0 || len(before) != len(e.c.blocks) {
		t.Fatalf("%d mapped starts for %d compiled blocks", len(before), len(e.c.blocks))
	}
	grown := append(code, make([]isa.Instr, 300)...)
	e.Sync(grown)
	if e.c.byAddr.n != uint32(len(grown)) || len(mapped(e)) != len(before) {
		t.Errorf("growth to %d words: table maps %d addresses, %d starts; want all %d kept",
			len(grown), e.c.byAddr.n, len(mapped(e)), len(before))
	}
	e.Sync(grown[:len(code)])
	if got := mapped(e); len(got) != 0 || e.c.byAddr.pageCount() != 0 {
		t.Errorf("shrink keeps %v mapped over %d pages", got, e.c.byAddr.pageCount())
	}

	e = NewEngine(code, nil, 1)
	run(e)
	victim := e.c.blocks[len(e.c.blocks)-1]
	addr := victim.spans[0].hi - 1
	covering := 0
	for _, b := range e.c.blocks {
		if b.covers(addr) {
			covering++
		}
	}
	e.Redecode(addr)
	if e.c.byAddr.get(victim.start) != nil || !victim.dead {
		t.Errorf("Redecode inside the block at %d left it mapped", victim.start)
	}
	if got := len(mapped(e)); got != len(before)-covering {
		t.Errorf("Redecode at %d, covered by %d blocks, left %d of %d starts mapped", addr, covering, got, len(before))
	}

	f := NewEngine(code, nil, 0)
	f.Freeze(before)
	v := f.Clone()
	v.Sync(grown)
	if v.disabled {
		t.Error("a frozen view disabled itself on code growth")
	}
	v.Sync(code[:len(code)-1])
	if !v.disabled {
		t.Error("a frozen view kept running over shrunk code")
	}
}
