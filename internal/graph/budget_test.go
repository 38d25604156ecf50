package graph

import (
	"sync"
	"testing"

	"repro/internal/inject"
	"repro/internal/obs"
)

// seedKeys returns n test cell keys under seeds 1000, 1001, ...: four
// digits each, so every key's fingerprint, and with it a fake entry's
// encoding, has the same length.
func seedKeys(t *testing.T, n int) []CellKey {
	t.Helper()
	base := testKey(t, testProgram(t))
	keys := make([]CellKey, n)
	for i := range keys {
		keys[i] = base
		keys[i].Seed = int64(1000 + i)
	}
	return keys
}

// encodedSize is the memory-layer footprint of e stored under k.
func encodedSize(k CellKey, e *Entry) int {
	return len(encodeEntry(e, k.Fingerprint()))
}

// held reports whether k's entry is resident in the memory layer,
// without touching its recency.
func held(c *Cache, k CellKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.mem[k.fileName()]
	return ok
}

// checkLayer asserts the memory layer's accounting: the byte counter is
// the sum of the resident entries, the map and the list agree, and the
// layer fits its budget.
func checkLayer(t *testing.T, c *Cache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	sum := 0
	for el := c.lru.Front(); el != nil; el = el.Next() {
		r := el.Value.(*resident)
		if c.mem[r.name] != el {
			t.Fatalf("list entry %s is not the map's element", r.name)
		}
		sum += len(r.raw)
	}
	if sum != c.size {
		t.Fatalf("size counter %d, resident entries hold %d bytes", c.size, sum)
	}
	if c.lru.Len() != len(c.mem) {
		t.Fatalf("list holds %d entries, map %d", c.lru.Len(), len(c.mem))
	}
	if c.size > c.budget {
		t.Fatalf("memory layer holds %d bytes over its %d-byte budget", c.size, c.budget)
	}
}

// Many stores into a small budget: the layer never holds more than the
// budget, keeps the most recent entries and drops the rest.
func TestMemoryLayerStaysWithinBudget(t *testing.T) {
	const stores = 200
	keys := seedKeys(t, stores)
	size := encodedSize(keys[0], fakeEntry("RCF"))
	c := New("")
	c.budget = 5*size + size/2
	reg := obs.NewRegistry()
	for _, k := range keys {
		if _, _, err := c.Run(k, reg, func(*obs.Registry) (*inject.Report, error) {
			return fakeReport("RCF"), nil
		}); err != nil {
			t.Fatal(err)
		}
		checkLayer(t, c)
	}
	if got := c.lru.Len(); got != 5 {
		t.Errorf("%d entries resident, want 5", got)
	}
	for _, k := range keys[stores-5:] {
		if !held(c, k) {
			t.Errorf("recent seed %d was evicted", k.Seed)
		}
	}
	if held(c, keys[0]) {
		t.Error("the coldest entry is still resident")
	}
	if got := counter(reg, "graph_cache_evictions_total"); got != stores-5 {
		t.Errorf("evictions = %d, want %d", got, stores-5)
	}
}

// A memory hit makes its entry the most recently used: the next store
// evicts a colder entry instead.
func TestHitKeepsEntryResident(t *testing.T) {
	keys := seedKeys(t, 3)
	a, b, d := keys[0], keys[1], keys[2]
	e := fakeEntry("RCF")
	c := New("")
	c.budget = 2 * encodedSize(a, e)
	c.Store(a, e)
	c.Store(b, e)
	if c.Lookup(a, nil) == nil {
		t.Fatal("resident entry missed")
	}
	c.Store(d, e)
	checkLayer(t, c)
	if !held(c, a) || !held(c, d) {
		t.Error("the hit entry or the newest entry was evicted")
	}
	if held(c, b) {
		t.Error("the least recently used entry is still resident")
	}
}

// Storing a key again replaces its bytes and their accounting.
func TestStoreAgainReaccountsBytes(t *testing.T) {
	k := seedKeys(t, 1)[0]
	small := fakeEntry("RCF")
	large := fakeEntry("RCF")
	large.Normalized += string(make([]byte, 4096))
	c := New("")
	c.Store(k, small)
	c.Store(k, large)
	checkLayer(t, c)
	if got, want := c.size, encodedSize(k, large); got != want {
		t.Errorf("size %d after re-store, want %d", got, want)
	}
	if c.lru.Len() != 1 {
		t.Errorf("%d entries resident, want 1", c.lru.Len())
	}
	if got := c.Lookup(k, nil); got == nil || got.Normalized != large.Normalized {
		t.Error("lookup did not return the re-stored entry")
	}
}

// With a directory, an entry evicted from memory still hits from disk,
// and the hit promotes it back into memory, evicting the coldest.
func TestEvictedEntryHitsFromDisk(t *testing.T) {
	keys := seedKeys(t, 3)
	a, b, d := keys[0], keys[1], keys[2]
	e := fakeEntry("RCF")
	c := New(t.TempDir())
	c.budget = 2 * encodedSize(a, e)
	c.Store(a, e)
	c.Store(b, e)
	c.Store(d, e)
	if held(c, a) {
		t.Fatal("the coldest entry is still resident")
	}
	reg := obs.NewRegistry()
	got := c.Lookup(a, reg)
	if got == nil {
		t.Fatal("evicted entry missed on disk")
	}
	if got.Normalized != e.Normalized {
		t.Error("disk hit returned a different entry")
	}
	checkLayer(t, c)
	if !held(c, a) {
		t.Error("disk hit was not promoted into memory")
	}
	if held(c, b) {
		t.Error("promotion did not evict the coldest entry")
	}
	if n := counter(reg, "graph_cache_evictions_total"); n != 1 {
		t.Errorf("promotion evictions = %d, want 1", n)
	}
}

// An entry larger than the whole budget goes to disk only, and replaces
// (drops) an older resident version of the same key.
func TestOversizedEntryNotHeld(t *testing.T) {
	k := seedKeys(t, 1)[0]
	small := fakeEntry("RCF")
	big := fakeEntry("RCF")
	big.Normalized += string(make([]byte, 8192))
	for _, dir := range []string{"", t.TempDir()} {
		c := New(dir)
		c.budget = 2 * encodedSize(k, small)
		c.Store(k, small)
		c.Store(k, big)
		checkLayer(t, c)
		if held(c, k) || c.size != 0 {
			t.Errorf("dir %q: oversized entry held in memory (size %d)", dir, c.size)
		}
		got := c.Lookup(k, nil)
		switch {
		case dir == "" && got != nil:
			t.Error("memory-only cache answered an entry it could not hold")
		case dir != "" && (got == nil || got.Normalized != big.Normalized):
			t.Error("oversized entry did not hit from disk")
		}
		if held(c, k) {
			t.Errorf("dir %q: oversized disk hit was promoted", dir)
		}
	}
}

// Concurrent Run and Lookup calls on one cache with a budget of a few
// entries: every answer is its own key's report, and the layer's
// accounting holds at the end. Run it under -race.
func TestConcurrentRunAndLookup(t *testing.T) {
	keys := seedKeys(t, 16)
	c := New(t.TempDir())
	c.budget = 3 * encodedSize(keys[0], fakeEntry("RCF"))
	report := func(i int) *inject.Report {
		r := fakeReport("RCF")
		r.Samples = 10 + i
		return r
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 100; n++ {
				i := (g*7 + n*3) % len(keys)
				if n%2 == 0 {
					if got := c.Lookup(keys[i], nil); got != nil && got.Report.Samples != 10+i {
						t.Errorf("lookup %d answered samples %d", i, got.Report.Samples)
					}
					continue
				}
				rep, _, err := c.Run(keys[i], nil, func(*obs.Registry) (*inject.Report, error) {
					return report(i), nil
				})
				if err != nil {
					t.Error(err)
				} else if rep.Samples != 10+i {
					t.Errorf("run %d answered samples %d", i, rep.Samples)
				}
			}
		}(g)
	}
	wg.Wait()
	checkLayer(t, c)
}
