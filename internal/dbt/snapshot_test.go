package dbt

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
)

// The documented default must stay pinned: campaign reproducibility depends
// on every DBT forming traces at the same dispatch count.
func TestDefaultTraceThreshold(t *testing.T) {
	if defaultTraceThreshold != 16 {
		t.Fatalf("defaultTraceThreshold = %d, want 16", defaultTraceThreshold)
	}
	p := mustAssemble(t, sumSrc)
	if got := New(p, Options{}).opts.TraceThreshold; got != 16 {
		t.Errorf("New with zero TraceThreshold resolved to %d, want 16", got)
	}
	if got := New(p, Options{TraceThreshold: 3}).opts.TraceThreshold; got != 3 {
		t.Errorf("explicit TraceThreshold overridden to %d", got)
	}
	if got := New(p, Options{TraceThreshold: -1}).opts.TraceThreshold; got != -1 {
		t.Errorf("negative TraceThreshold (traces off) overridden to %d", got)
	}
}

// A DBT primed from a warm snapshot must behave exactly like the
// snapshotted instance: same output, same cycles, and no re-translation.
func TestSnapshotPrimesWarmDBT(t *testing.T) {
	p := mustAssemble(t, hotLoopSrc)
	d := New(p, Options{TraceThreshold: 20})
	for i := 0; i < 3; i++ {
		if res := d.Run(nil, 10_000_000); res.Stop.Reason != cpu.StopHalt {
			t.Fatalf("warm-up run %d: %v", i, res.Stop)
		}
	}
	snap := d.Snapshot()
	if snap.CacheLen() != d.CacheLen() {
		t.Fatalf("snapshot cache %d != dbt cache %d", snap.CacheLen(), d.CacheLen())
	}

	warm := d.Run(nil, 10_000_000)
	clone := snap.NewDBT().Run(nil, 10_000_000)
	if clone.Stop != warm.Stop || clone.Cycles != warm.Cycles {
		t.Errorf("clone run (%v, %d cycles) != warm original (%v, %d cycles)",
			clone.Stop, clone.Cycles, warm.Stop, warm.Cycles)
	}
	if len(clone.Output) != len(warm.Output) || clone.Output[0] != warm.Output[0] {
		t.Errorf("clone output %v != %v", clone.Output, warm.Output)
	}
	if clone.Stats.BlocksTranslated != warm.Stats.BlocksTranslated ||
		clone.Stats.TracesFormed != warm.Stats.TracesFormed {
		t.Errorf("clone re-translated: stats %+v != %+v", clone.Stats, warm.Stats)
	}
}

// Mutations on a primed DBT (chaining, fresh translations under a faulty
// run) must stay local to that instance: the snapshot and its siblings are
// unaffected.
func TestSnapshotIsolation(t *testing.T) {
	p := mustAssemble(t, hotLoopSrc)

	// Cold snapshot: every clone starts empty (only the null page, word
	// 0) and grows privately.
	cold := New(p, Options{}).Snapshot()
	c1 := cold.NewDBT()
	c1.Run(nil, 10_000_000)
	if c1.CacheLen() <= 1 {
		t.Fatal("clone run translated nothing")
	}
	if cold.CacheLen() != 1 {
		t.Errorf("clone run grew the snapshot cache to %d", cold.CacheLen())
	}
	if c2 := cold.NewDBT(); c2.CacheLen() != 1 {
		t.Errorf("sibling clone starts with cache %d, want 1", c2.CacheLen())
	}

	// Warm snapshot: a faulty run (which may chain stubs in place and
	// translate wild targets) must not disturb later clones.
	d := New(p, Options{TraceThreshold: 20})
	for i := 0; i < 3; i++ {
		d.Run(nil, 10_000_000)
	}
	snap := d.Snapshot()
	want := snap.NewDBT().Run(nil, 10_000_000)

	f := &cpu.Fault{Kind: cpu.FaultOffsetBit, BranchIndex: 5, Bit: 9}
	snap.NewDBT().Run(f, 10_000_000)
	if !f.Fired {
		t.Fatal("fault did not fire")
	}

	after := snap.NewDBT().Run(nil, 10_000_000)
	if after.Cycles != want.Cycles || after.Output[0] != want.Output[0] {
		t.Errorf("faulty sibling leaked state: (%d cycles, %v) != (%d cycles, %v)",
			after.Cycles, after.Output, want.Cycles, want.Output)
	}
}

// cowTail is the body the copy-on-write test programs share: a block the
// test translates up front (pre), then a loop whose back edge is hot
// enough to form a trace, then an exit block.
const cowTail = `
pre:
    addi eax, 1
loop:
    addi eax, 3
    jmp step
step:
    subi ecx, 1
    cmpi ecx, 0
    jgt loop
done:
    out eax
    halt
`

// A clone shares the snapshot's cache, tlist and stubs copy-on-write. One
// that dispatches, chain-patches snapshot-era slots, translates a new block
// and forms a trace must leave all three exactly as they were, so a clone
// made afterwards runs exactly like the first. The snapshot holds the
// entry and pre blocks translated but never run, so the first clone's
// first in-place writes land on snapshot entries: the stub counter, then
// a slot patch (the entry's jmp exit has no referrer) or a referrer patch
// (the fall-through arm of a conditional is re-pointed at its branch).
func TestSnapshotCopyOnWriteLeavesSnapshotIntact(t *testing.T) {
	for _, tc := range []struct {
		name, head string
		referrer   bool
	}{
		{"slot", "    jmp pre\n", false},
		{"referrer", "    cmpi eax, 1\n    jeq done\n", true},
	} {
		p := mustAssemble(t, "main:\n    movi eax, 0\n    movi ecx, 20\n"+tc.head+cowTail)
		var pre uint32
		for addr, name := range p.Symbols {
			if name == "pre" {
				pre = addr
			}
		}
		owner := New(p, Options{})
		for _, g := range []uint32{p.Entry, pre} {
			if _, err := owner.ensure(g); err != nil {
				t.Fatal(err)
			}
		}
		snap := owner.Snapshot()
		cache := slices.Clone(snap.cache)
		stubs := slices.Clone(snap.stubs)
		tlist := make([]TBlock, len(snap.tlist))
		for i, tb := range snap.tlist {
			tlist[i] = *tb
		}

		first := snap.NewDBT()
		want := first.Run(nil, 1_000_000)
		if want.Stop.Reason != cpu.StopHalt {
			t.Fatalf("%s: clone run ended with %v", tc.name, want.Stop)
		}
		work := want.Stats.Sub(snap.Stats())
		if work.Dispatches == 0 || work.BlocksTranslated == 0 || work.TracesFormed == 0 {
			t.Fatalf("%s: clone did not dispatch, translate and form a trace: %+v", tc.name, work)
		}
		patched, referrerPatched := 0, false
		for _, st := range stubs {
			if first.cache[st.slot].Op == isa.OpJmp {
				patched++
				referrerPatched = referrerPatched || st.referrer != noReferrer
			}
		}
		if patched == 0 || referrerPatched != tc.referrer {
			t.Fatalf("%s: clone chained %d snapshot stubs, referrer patched = %v, want %v",
				tc.name, patched, referrerPatched, tc.referrer)
		}

		if !reflect.DeepEqual(snap.cache, cache) {
			t.Errorf("%s: clone run changed the snapshot cache", tc.name)
		}
		if !reflect.DeepEqual(snap.stubs, stubs) {
			t.Errorf("%s: clone run changed the snapshot stubs", tc.name)
		}
		if len(snap.tlist) != len(tlist) {
			t.Errorf("%s: clone run grew the snapshot tlist to %d", tc.name, len(snap.tlist))
		}
		for i, tb := range snap.tlist[:min(len(snap.tlist), len(tlist))] {
			if !reflect.DeepEqual(*tb, tlist[i]) {
				t.Errorf("%s: clone run changed snapshot block %d", tc.name, i)
			}
		}
		if got := snap.NewDBT().Run(nil, 1_000_000); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: second clone %+v, want %+v", tc.name, got, want)
		}
	}
}
