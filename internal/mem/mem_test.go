package mem

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestLoadStore(t *testing.T) {
	m := New(16)
	if m.Size() != 16 {
		t.Fatalf("size = %d", m.Size())
	}
	if err := m.Store(3, -42); err != nil {
		t.Fatal(err)
	}
	v, err := m.Load(3)
	if err != nil {
		t.Fatal(err)
	}
	if v != -42 {
		t.Errorf("load = %d", v)
	}
}

func TestProtection(t *testing.T) {
	m := New(8)
	if _, err := m.Load(8); err == nil {
		t.Error("load at size should fault")
	}
	if err := m.Store(1<<30, 1); err == nil {
		t.Error("wild store should fault")
	}
	err := m.Store(100, 0)
	var pf *ProtectionFault
	if !asProtectionFault(err, &pf) {
		t.Fatalf("error type = %T", err)
	}
	if !pf.Write || pf.Addr != 100 {
		t.Errorf("fault = %+v", pf)
	}
	if !strings.Contains(pf.Error(), "store") {
		t.Errorf("fault message = %q", pf.Error())
	}
}

func asProtectionFault(err error, out **ProtectionFault) bool {
	pf, ok := err.(*ProtectionFault)
	if ok {
		*out = pf
	}
	return ok
}

func TestResetAndSnapshot(t *testing.T) {
	m := New(4)
	for i := uint32(0); i < 4; i++ {
		if err := m.Store(i, int32(i)+1); err != nil {
			t.Fatal(err)
		}
	}
	snap := m.Snapshot()
	if snap[2] != 3 {
		t.Errorf("snapshot[2] = %d", snap[2])
	}
	snap[2] = 99 // snapshot must be a copy
	if v, _ := m.Load(2); v != 3 {
		t.Error("snapshot aliases memory")
	}
	m.Reset()
	for i := uint32(0); i < 4; i++ {
		if v, _ := m.Load(i); v != 0 {
			t.Errorf("after reset word %d = %d", i, v)
		}
	}
}

func capturePages(m *Memory) map[uint32][]int32 {
	got := map[uint32][]int32{}
	m.CaptureDirty(func(page uint32, words []int32) {
		got[page] = append([]int32(nil), words...)
	})
	return got
}

func TestCaptureDirtyDeltas(t *testing.T) {
	m := New(PageWords*2 + 3) // final page is short
	if got := capturePages(m); len(got) != 0 {
		t.Fatalf("fresh memory has dirty pages: %v", got)
	}
	if err := m.Store(1, 11); err != nil {
		t.Fatal(err)
	}
	if err := m.Store(PageWords*2+2, 22); err != nil {
		t.Fatal(err)
	}
	got := capturePages(m)
	if len(got) != 2 {
		t.Fatalf("dirty pages = %v, want pages 0 and 2", got)
	}
	if got[0][1] != 11 {
		t.Errorf("page 0 word 1 = %d", got[0][1])
	}
	if len(got[2]) != 3 || got[2][2] != 22 {
		t.Errorf("short final page = %v", got[2])
	}
	// The capture advanced the generation: only newer writes show up next.
	if err := m.Store(PageWords, 33); err != nil {
		t.Fatal(err)
	}
	got = capturePages(m)
	if len(got) != 1 || got[1][0] != 33 {
		t.Errorf("second capture = %v, want only page 1", got)
	}
	if got = capturePages(m); len(got) != 0 {
		t.Errorf("idle capture = %v, want none", got)
	}
}

func TestResetMarksAllDirty(t *testing.T) {
	m := New(PageWords * 3)
	capturePages(m) // advance the generation past creation
	m.Reset()
	if got := capturePages(m); len(got) != 3 {
		t.Errorf("after Reset %d pages dirty, want all 3", len(got))
	}
}

// pageTable returns img as a Rollback page table: one entry per tracking
// page, aliasing img.
func pageTable(img []int32) [][]int32 {
	base := make([][]int32, pageCount(len(img)))
	for p := range base {
		lo := p << PageShift
		base[p] = img[lo:min(lo+PageWords, len(img))]
	}
	return base
}

// Rollback copies back exactly the pages stored to since the last
// capture or rollback: pages nobody wrote and pages filled by WriteClean
// keep their contents even where the page table disagrees, and a nil
// entry restores a zero page.
func TestRollbackRestoresOnlyDirtyPages(t *testing.T) {
	const size = PageWords*3 + 5 // final page is short
	m := New(size)
	img := make([]int32, size)
	for i := range img {
		img[i] = int32(1000 + i)
	}
	base := pageTable(img)
	m.WriteClean(0, img)
	if got := capturePages(m); len(got) != 0 {
		t.Fatalf("WriteClean marked pages dirty: %v", got)
	}
	// A seek-style clean write of page 1 that img does not share, and a
	// diverging img word on page 2 that nothing stores to.
	clean := make([]int32, PageWords)
	for i := range clean {
		clean[i] = -7
	}
	m.WriteClean(PageWords, clean)
	img[2*PageWords+1] = 55
	// Sample writes: page 0 and the short final page.
	for _, addr := range []uint32{3, size - 1} {
		if err := m.Store(addr, 99); err != nil {
			t.Fatal(err)
		}
	}
	if n := m.Rollback(base); n != 2 {
		t.Errorf("Rollback restored %d pages, want 2", n)
	}
	want := func(addr uint32, v int32) {
		t.Helper()
		if got, _ := m.Load(addr); got != v {
			t.Errorf("word %d = %d, want %d", addr, got, v)
		}
	}
	want(3, img[3])                         // dirty page 0 restored
	want(size-1, img[size-1])               // dirty short page restored
	want(PageWords, -7)                     // clean-written page untouched
	want(2*PageWords+1, 2*PageWords+1+1000) // unwritten page untouched
	if got := capturePages(m); len(got) != 0 {
		t.Errorf("pages still dirty after Rollback: %v", got)
	}
	// The next window sees only newer stores, and restores whole pages.
	if err := m.Store(PageWords+2, 5); err != nil {
		t.Fatal(err)
	}
	if err := m.Store(3, 5); err != nil {
		t.Fatal(err)
	}
	img[4] = 77 // page 0 is dirty again, so this now comes back
	m.Rollback(base)
	want(PageWords+2, img[PageWords+2])
	want(PageWords+3, img[PageWords+3])
	want(3, img[3])
	want(4, 77)
	want(2*PageWords+1, 2*PageWords+1+1000)
	// A nil entry is a zero page, the short final page included.
	base[0], base[3] = nil, nil
	for _, addr := range []uint32{5, size - 2} {
		if err := m.Store(addr, 9); err != nil {
			t.Fatal(err)
		}
	}
	m.Rollback(base)
	for _, addr := range []uint32{0, 5, PageWords - 1, 3 * PageWords, size - 1} {
		want(addr, 0)
	}
	want(PageWords+2, img[PageWords+2])
}

// Resize reuses the backing arrays of a zero, clean memory for any size
// they hold, growing back past a shrink included, and the result behaves
// as a new memory: zero words, no dirty page, bounds at the new size.
func TestResizeReusesZeroMemory(t *testing.T) {
	const big = PageWords*5 + 3
	m := New(big)
	for _, n := range []uint32{PageWords*2 + 1, big, PageWords * 3, 1} {
		if !m.Resize(n) {
			t.Fatalf("Resize(%d) refused within %d words", n, big)
		}
		if m.Size() != n {
			t.Fatalf("Size() = %d after Resize(%d)", m.Size(), n)
		}
		if got := capturePages(m); len(got) != 0 {
			t.Fatalf("Resize(%d): pages %v dirty", n, got)
		}
		if !slices.Equal(m.Snapshot(), make([]int32, n)) {
			t.Fatalf("Resize(%d): memory not zero", n)
		}
		if err := m.Store(n, 1); err == nil {
			t.Fatalf("Resize(%d): store at %d did not fault", n, n)
		}
		// Use it, then roll it back onto a zero baseline, as a released
		// checkpoint replayer does.
		for a := uint32(0); a < n; a += 7 {
			if err := m.Store(a, int32(a)+1); err != nil {
				t.Fatal(err)
			}
		}
		m.Rollback(make([][]int32, pageCount(int(n))))
	}
	if m.Resize(big + 1) {
		t.Errorf("Resize(%d) accepted past the %d-word backing array", big+1, big)
	}
}

// Property: replaying captured dirty pages onto a shadow image keeps it
// equal to the live memory — the invariant the checkpoint replayer needs.
func TestCaptureDirtyRebuildsImage(t *testing.T) {
	const size = PageWords*4 + 7
	m := New(size)
	img := make([]int32, size)
	rng := uint32(1)
	for round := 0; round < 10; round++ {
		for i := 0; i < 50; i++ {
			rng = rng*1664525 + 1013904223
			addr := rng % size
			if err := m.Store(addr, int32(rng)); err != nil {
				t.Fatal(err)
			}
		}
		m.CaptureDirty(func(page uint32, words []int32) {
			copy(img[int(page)<<PageShift:], words)
		})
		live := m.Snapshot()
		for i := range img {
			if img[i] != live[i] {
				t.Fatalf("round %d: image diverges at word %d: %d != %d", round, i, img[i], live[i])
			}
		}
	}
}

// Property: a store followed by a load at any in-range address returns the
// stored value, and out-of-range accesses always fault.
func TestLoadStoreProperty(t *testing.T) {
	m := New(1024)
	f := func(addr uint32, v int32) bool {
		errS := m.Store(addr, v)
		got, errL := m.Load(addr)
		if addr < 1024 {
			return errS == nil && errL == nil && got == v
		}
		return errS != nil && errL != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Dirty walks the pages CaptureDirty would hand out, in the same order,
// without consuming them, and stops early when asked to.
func TestDirtyIsReadOnly(t *testing.T) {
	m := New(PageWords*3 + 5)
	for _, a := range []uint32{PageWords*3 + 4, 2, PageWords + 7} {
		if err := m.Store(a, int32(a)+1); err != nil {
			t.Fatal(err)
		}
	}
	var walked []uint32
	if !m.Dirty(func(page uint32, words []int32) bool {
		walked = append(walked, page)
		if want := m.Page(page); &words[0] != &want[0] || len(words) != len(want) {
			t.Errorf("page %d: walk and Page disagree", page)
		}
		return true
	}) {
		t.Error("a full walk reported an early stop")
	}
	if want := []uint32{0, 1, 3}; !slices.Equal(walked, want) {
		t.Fatalf("walked %v, want %v", walked, want)
	}
	if len(m.Page(3)) != 5 {
		t.Errorf("short final page has %d words, want 5", len(m.Page(3)))
	}
	n := 0
	if m.Dirty(func(uint32, []int32) bool { n++; return false }) || n != 1 {
		t.Errorf("early stop: walk returned true or visited %d pages", n)
	}
	// Nothing was consumed: a capture still sees all three pages.
	if got := capturePages(m); len(got) != 3 {
		t.Errorf("capture after Dirty = %v, want pages 0, 1 and 3", got)
	}
}
