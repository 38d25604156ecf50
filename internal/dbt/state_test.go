package dbt

import (
	"reflect"
	"testing"

	"repro/internal/comp"
	"repro/internal/cpu"
)

// warmFor builds a warm translator over hotLoopSrc under opts and returns
// its snapshot.
func warmFor(t *testing.T, opts Options) *Snapshot {
	t.Helper()
	p := mustAssemble(t, hotLoopSrc)
	d := New(p, opts)
	for i := 0; i < 3; i++ {
		if res := d.Run(nil, 10_000_000); res.Stop.Reason != cpu.StopHalt {
			t.Fatalf("warm-up run %d: %v", i, res.Stop)
		}
	}
	return d.Snapshot()
}

// A snapshot restored from its portable state must behave exactly like
// the original: clones produce the same output, cycles and stats (no
// re-translation), for both the interpreter and the compiled backend.
func TestSnapshotStateRoundTrip(t *testing.T) {
	for _, backend := range []comp.Backend{comp.BackendStep, comp.BackendAuto} {
		t.Run(backend.String(), func(t *testing.T) {
			opts := Options{TraceThreshold: 20, Backend: backend}
			snap := warmFor(t, opts)
			st, err := snap.State()
			if err != nil {
				t.Fatal(err)
			}
			restored, err := RestoreSnapshot(snap.prog, opts, st)
			if err != nil {
				t.Fatal(err)
			}
			if restored.CacheLen() != snap.CacheLen() {
				t.Fatalf("restored cache %d != original %d", restored.CacheLen(), snap.CacheLen())
			}
			if restored.Stats() != snap.Stats() {
				t.Fatalf("restored stats %+v != %+v", restored.Stats(), snap.Stats())
			}
			if restored.CompStats() != snap.CompStats() {
				t.Fatalf("restored comp stats %+v != %+v", restored.CompStats(), snap.CompStats())
			}

			want := snap.NewDBT().Run(nil, 10_000_000)
			got := restored.NewDBT().Run(nil, 10_000_000)
			if got.Stop != want.Stop || got.Cycles != want.Cycles {
				t.Errorf("restored clean run (%v, %d cycles) != original (%v, %d cycles)",
					got.Stop, got.Cycles, want.Stop, want.Cycles)
			}
			if !reflect.DeepEqual(got.Output, want.Output) {
				t.Errorf("restored output %v != %v", got.Output, want.Output)
			}
			if got.Stats != want.Stats {
				t.Errorf("restored clone re-translated: %+v != %+v", got.Stats, want.Stats)
			}

			// Faulty runs — which chain stubs and may translate wild
			// targets — must also agree.
			wf := &cpu.Fault{Kind: cpu.FaultOffsetBit, BranchIndex: 5, Bit: 9}
			gf := &cpu.Fault{Kind: cpu.FaultOffsetBit, BranchIndex: 5, Bit: 9}
			wr := snap.NewDBT().Run(wf, 10_000_000)
			gr := restored.NewDBT().Run(gf, 10_000_000)
			if wf.Fired != gf.Fired || gr.Stop != wr.Stop || gr.Cycles != wr.Cycles {
				t.Errorf("restored faulty run (%v, %d cycles) != original (%v, %d cycles)",
					gr.Stop, gr.Cycles, wr.Stop, wr.Cycles)
			}
		})
	}
}

// The portable image itself must round-trip structurally: extracting
// state from a restored snapshot yields the same image, so publishing a
// fetched artifact re-encodes to the same bytes.
func TestSnapshotStateStable(t *testing.T) {
	opts := Options{TraceThreshold: 20, Backend: comp.BackendAuto}
	snap := warmFor(t, opts)
	st, err := snap.State()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSnapshot(snap.prog, opts, st)
	if err != nil {
		t.Fatal(err)
	}
	again, err := restored.State()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, st) {
		t.Fatalf("state not stable under restore:\n got %+v\nwant %+v", again, st)
	}
}

// Damaged images must be rejected, not trusted.
func TestRestoreSnapshotRejectsInconsistent(t *testing.T) {
	opts := Options{TraceThreshold: 20}
	snap := warmFor(t, opts)
	cases := map[string]func(*SnapshotState){
		"block outside cache": func(st *SnapshotState) { st.Blocks[0].CacheEnd = uint32(len(st.Cache)) + 9 },
		"ref outside blocks":  func(st *SnapshotState) { st.BlockMap[0].Index = uint32(len(st.Blocks)) },
		"stub outside cache":  func(st *SnapshotState) { st.Stubs[0].Slot = uint32(len(st.Cache)) },
	}
	for name, mut := range cases {
		t.Run(name, func(t *testing.T) {
			st, err := snap.State()
			if err != nil {
				t.Fatal(err)
			}
			if len(st.Stubs) == 0 || len(st.BlockMap) == 0 {
				t.Skip("warm snapshot has no stubs/refs to damage")
			}
			mut(st)
			if _, err := RestoreSnapshot(snap.prog, opts, st); err == nil {
				t.Fatal("damaged state restored without error")
			}
		})
	}
}
