package graph

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/check"
	"repro/internal/comp"
	"repro/internal/core"
	"repro/internal/errmodel"
	"repro/internal/inject"
	"repro/internal/isa"
	"repro/internal/obs"
)

// The test cell family: one real workload at a tiny scale, mirroring the
// session tests, so the end-to-end cases stay in the tens of
// milliseconds.
const (
	testWorkload = "164.gzip"
	testScale    = 0.02
	testSamples  = 30
	testSeed     = 7
)

func testProgram(t *testing.T) *isa.Program {
	t.Helper()
	p, err := core.Workload(testWorkload, testScale)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func testKey(t *testing.T, p *isa.Program) CellKey {
	t.Helper()
	return KeyFor(p, "RCF", "CMOVcc", "ALLBB", testSamples, testSeed, 0, -1, comp.BackendAuto, 0)
}

// fakeReport builds a small but structurally complete report, enough for
// FormatNormalized and the JSON round trip.
func fakeReport(tech string) *inject.Report {
	a := &inject.Agg{Total: 10}
	a.Count[inject.OutDetectedSW] = 8
	a.Count[inject.OutSDC] = 2
	r := &inject.Report{
		Program: testWorkload, Technique: tech,
		Samples: 10, Workers: 4,
		ByCat: map[errmodel.Category]*inject.Agg{errmodel.CatA: a},
	}
	r.Totals = *a
	return r
}

func fakeEntry(tech string) *Entry {
	rep := fakeReport(tech)
	stored := *rep
	stored.Workers = 0
	return &Entry{Report: &stored, Normalized: inject.FormatNormalized(rep)}
}

func counter(reg *obs.Registry, name string) uint64 {
	return reg.Snapshot().Counters[name]
}

// Every key field must reach the fingerprint: two cells differing in any
// output-influencing input must never share an entry.
func TestFingerprintSensitivity(t *testing.T) {
	base := testKey(t, testProgram(t))
	mutations := map[string]func(*CellKey){
		"program":       func(k *CellKey) { k.Program = "other" },
		"program hash":  func(k *CellKey) { k.ProgramHash = "beef" },
		"technique":     func(k *CellKey) { k.Technique = "ECF" },
		"style":         func(k *CellKey) { k.Style = "Jcc" },
		"policy":        func(k *CellKey) { k.Policy = "RET" },
		"samples":       func(k *CellKey) { k.Samples++ },
		"seed":          func(k *CellKey) { k.Seed++ },
		"sample offset": func(k *CellKey) { k.SampleOffset += 10 },
		"ckpt interval": func(k *CellKey) { k.CkptInterval = 0 },
		"backend":       func(k *CellKey) { k.Backend = "step" },
		"max steps":     func(k *CellKey) { k.MaxSteps++ },
	}
	for name, mutate := range mutations {
		k := base
		mutate(&k)
		if k.Fingerprint() == base.Fingerprint() {
			t.Errorf("%s change did not change the fingerprint", name)
		}
	}
	// Version bumps invalidate without moving the file: same name, new
	// fingerprint, so the stale entry is overwritten in place.
	if got := base.fingerprintAt(EngineVersion+1, TechniqueVersion(base.Technique)); got == base.Fingerprint() {
		t.Error("engine version bump did not change the fingerprint")
	}
	stale := base
	stale.ProgramHash = "beef"
	if stale.fileName() != base.fileName() {
		t.Error("program-hash change moved the cache file (stale entry would be orphaned)")
	}
}

// KeyFor folds spellings that run identically into one cell, and names
// the compiled backend "compile" so cells persisted under that name still
// hit.
func TestKeyForNormalizes(t *testing.T) {
	p := testProgram(t)
	auto := KeyFor(p, "RCF", "CMOVcc", "ALLBB", 10, 1, 0, -1, comp.BackendAuto, 0)
	explicit := KeyFor(p, "RCF", "CMOVcc", "ALLBB", 10, 1, 0, -1, comp.BackendAuto, inject.DefaultMaxSteps)
	if auto != explicit {
		t.Errorf("default step budget %+v != explicit budget %+v", auto, explicit)
	}
	if auto.Backend != "compile" {
		t.Errorf("compiled backend keys as %q, want \"compile\"", auto.Backend)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	k := testKey(t, testProgram(t))
	e := fakeEntry("RCF")
	got, err := decodeEntry(encodeEntry(e, k.Fingerprint()), k.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, e) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, e)
	}
	if got.Normalized != inject.FormatNormalized(got.Report) {
		t.Error("decoded Normalized does not re-render from the decoded report")
	}
}

// A miss computes against a private registry, stores, and the next Run —
// including from a fresh cache over the same directory — hits without
// calling compute.
func TestRunMissThenHit(t *testing.T) {
	dir := t.TempDir()
	k := testKey(t, testProgram(t))
	live := fakeReport("RCF")
	computes := 0
	compute := func(m *obs.Registry) (*inject.Report, error) {
		computes++
		m.Counter("ckpt_recordings_total").Add(1)
		return live, nil
	}

	reg := obs.NewRegistry()
	rep, cached, err := New(dir).Run(k, reg, compute)
	if err != nil {
		t.Fatal(err)
	}
	if cached || computes != 1 {
		t.Fatalf("cold run: cached=%v computes=%d, want false/1", cached, computes)
	}
	if rep.Workers != 4 {
		t.Error("cold run did not return the live report")
	}
	if counter(reg, "graph_cache_misses_total") != 1 || counter(reg, "graph_cells_executed_total") != 1 {
		t.Error("cold run miss accounting wrong")
	}
	// The private registry's counters surfaced in the caller's.
	if counter(reg, "ckpt_recordings_total") != 1 {
		t.Error("compute-side counters were not merged into the live registry")
	}

	// Fresh cache handle on the same directory: the hit comes off disk.
	reg2 := obs.NewRegistry()
	rep2, cached2, err := New(dir).Run(k, reg2, compute)
	if err != nil {
		t.Fatal(err)
	}
	if !cached2 || computes != 1 {
		t.Fatalf("warm run: cached=%v computes=%d, want true/1", cached2, computes)
	}
	if counter(reg2, "graph_cache_hits_total") != 1 {
		t.Error("warm run hit accounting wrong")
	}
	// The cached report is the normalized form: wall clock was not spent.
	if rep2.Workers != 0 || rep2.Elapsed != 0 {
		t.Error("cached report carries wall-clock fields")
	}
	if inject.FormatNormalized(rep2) != inject.FormatNormalized(live) {
		t.Error("cached report renders differently from the live one")
	}
	// The deterministic compute-side counters replay on a hit too.
	if counter(reg2, "ckpt_recordings_total") != 1 {
		t.Error("cached metrics were not merged on the hit")
	}
}

// An entry written under an older engine version is stale: the lookup
// misses (counting it), Run recomputes, and the rewrite heals the file.
func TestEngineVersionBumpInvalidates(t *testing.T) {
	dir := t.TempDir()
	k := testKey(t, testProgram(t))
	raw := encodeEntry(fakeEntry("RCF"), k.fingerprintAt(EngineVersion-1, TechniqueVersion(k.Technique)))
	if err := os.WriteFile(filepath.Join(dir, k.fileName()), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	computes := 0
	_, cached, err := New(dir).Run(k, reg, func(*obs.Registry) (*inject.Report, error) {
		computes++
		return fakeReport("RCF"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cached || computes != 1 {
		t.Fatalf("stale entry answered: cached=%v computes=%d", cached, computes)
	}
	if counter(reg, "graph_cache_stale_total") != 1 {
		t.Errorf("stale = %d, want 1", counter(reg, "graph_cache_stale_total"))
	}
	if counter(reg, "graph_cache_corrupt_total") != 0 {
		t.Error("stale entry counted as corrupt")
	}
	// The recompute overwrote the stale bytes in place: current version hits.
	if e := New(dir).Lookup(k, nil); e == nil {
		t.Error("recompute did not heal the cache file")
	}
}

// Bumping one technique's version invalidates that technique's cells and
// no others — the incremental re-run the docs walk through.
func TestTechniqueVersionBumpInvalidatesOnlyThatTechnique(t *testing.T) {
	dir := t.TempDir()
	p := testProgram(t)
	rcf := testKey(t, p)
	ecf := rcf
	ecf.Technique = "ECF"

	c := New(dir)
	c.Store(rcf, fakeEntry("RCF"))
	c.Store(ecf, fakeEntry("ECF"))

	bumpVersion(t, "RCF")

	reg := obs.NewRegistry()
	fresh := New(dir)
	if fresh.Lookup(rcf, reg) != nil {
		t.Error("bumped technique's cell still answers")
	}
	if counter(reg, "graph_cache_stale_total") != 1 {
		t.Errorf("stale = %d, want 1", counter(reg, "graph_cache_stale_total"))
	}
	if fresh.Lookup(ecf, reg) == nil {
		t.Error("unbumped technique's cell was invalidated too")
	}
}

// bumpVersion raises the named technique's table version until the test
// ends.
func bumpVersion(t *testing.T, name string) {
	t.Helper()
	row, err := check.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	row.Version++
	t.Cleanup(func() { row.Version-- })
}

// Every spelling of a configuration keys one cell at the row's version: a
// lower-case or empty technique name used to key its own cell at version
// 0, which a version bump never invalidated, and a style or policy
// spelling its own cell. Among the spellings: cfc-inject's flag defaults
// (CMOVcc, ALLBB) and the coverage matrix's (CMOVcc, "") for the static
// rows, which read no style.
func TestTechniqueSpellingsShareOneCell(t *testing.T) {
	key := func(c [3]string) CellKey {
		return KeyForDigest("181.mcf", "d1g35t", c[0], c[1], c[2], 40, 1, 0, -1, comp.BackendAuto, 0)
	}
	for _, spellings := range [][][3]string{
		{{"RCF", "CMOVcc", "ALLBB"}, {"rcf", "CMOVcc", "ALLBB"}, {"Rcf", "cmov", ""}, {"RCF", "cmovcc", "allbb"}},
		{{"RCF", "Jcc", "RET-BE"}, {"RCF", "", "retbe"}, {"rcf", "JCC", "Ret-Be"}},
		{{"none", "", "ALLBB"}, {"", "", ""}, {"NONE", "CMOVcc", "ALLBB"}, {"none", "Jcc", "allbb"}},
		{{"CFCSS", "", "ALLBB"}, {"cfcss", "CMOVcc", "ALLBB"}, {"Cfcss", "CMOVcc", ""}, {"CFCSS", "jcc", "Allbb"}},
		{{"ECCA", "", "END"}, {"ecca", "cmov", "end"}},
	} {
		want := key(spellings[0]).Fingerprint()
		for _, s := range spellings[1:] {
			if got := key(s).Fingerprint(); got != want {
				t.Errorf("%q keys %s, want %s", s, got, want)
			}
		}
	}
	if a, b := key([3]string{"RCF", "Jcc", "ALLBB"}), key([3]string{"RCF", "CMOVcc", "ALLBB"}); a == b {
		t.Error("RCF under Jcc and CMOVcc share a cell")
	}

	dir := t.TempDir()
	p := testProgram(t)
	upper := testKey(t, p)
	lower := KeyFor(p, "rcf", "CMOVcc", "ALLBB", testSamples, testSeed, 0, -1, comp.BackendAuto, 0)
	New(dir).Store(lower, fakeEntry("RCF"))
	if New(dir).Lookup(upper, nil) == nil {
		t.Fatal(`a cell stored as "rcf" does not answer "RCF"`)
	}
	bumpVersion(t, "RCF")
	for _, k := range []CellKey{upper, lower} {
		if New(dir).Lookup(k, nil) != nil {
			t.Errorf("%q cell survived RCF's version bump", k.Technique)
		}
	}
}

// Each row's fingerprint for its canonical names is pinned at one fixed
// key, so cells persisted before the technique table keep answering. The
// rows that read no style key it as "".
func TestCanonicalFingerprintsPinned(t *testing.T) {
	want := map[string]string{
		"none":  "cell|v3|t1|181.mcf|d1g35t|none||ALLBB|s1|n40|o0|i-1|compile|m50000000",
		"ECF":   "cell|v3|t1|181.mcf|d1g35t|ECF|CMOVcc|ALLBB|s1|n40|o0|i-1|compile|m50000000",
		"EdgCF": "cell|v3|t1|181.mcf|d1g35t|EdgCF|CMOVcc|ALLBB|s1|n40|o0|i-1|compile|m50000000",
		"RCF":   "cell|v3|t1|181.mcf|d1g35t|RCF|CMOVcc|ALLBB|s1|n40|o0|i-1|compile|m50000000",
		"CFCSS": "cell|v3|t1|181.mcf|d1g35t|CFCSS||ALLBB|s1|n40|o0|i-1|compile|m50000000",
		"ECCA":  "cell|v3|t1|181.mcf|d1g35t|ECCA||ALLBB|s1|n40|o0|i-1|compile|m50000000",
	}
	if len(check.Techniques) != len(want) {
		t.Fatalf("%d techniques; pin the new row's fingerprint here", len(check.Techniques))
	}
	for _, row := range check.Techniques {
		k := KeyForDigest("181.mcf", "d1g35t", row.Name, "CMOVcc", "ALLBB", 40, 1, 0, -1, comp.BackendAuto, 0)
		if got := k.Fingerprint(); got != want[row.Name] {
			t.Errorf("%s: fingerprint %s, want %s", row.Name, got, want[row.Name])
		}
	}
}

// Garbage bytes in the cache file count as corrupt, never error, and the
// recompute rewrites them.
func TestCorruptEntryRecovers(t *testing.T) {
	dir := t.TempDir()
	k := testKey(t, testProgram(t))
	if err := os.WriteFile(filepath.Join(dir, k.fileName()), []byte("not a cell entry"), 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	_, cached, err := New(dir).Run(k, reg, func(*obs.Registry) (*inject.Report, error) {
		return fakeReport("RCF"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("corrupt entry was trusted")
	}
	if counter(reg, "graph_cache_corrupt_total") != 1 {
		t.Errorf("corrupt = %d, want 1", counter(reg, "graph_cache_corrupt_total"))
	}
	if e := New(dir).Lookup(k, nil); e == nil {
		t.Error("recompute did not heal the corrupt file")
	}
}

// Truncated or bit-flipped encodings must decode as corrupt, not stale
// and never as a valid entry.
func TestDecodeRejectsDamage(t *testing.T) {
	k := testKey(t, testProgram(t))
	good := encodeEntry(fakeEntry("RCF"), k.Fingerprint())
	for name, buf := range map[string][]byte{
		"empty":     {},
		"short":     good[:8],
		"truncated": good[:len(good)-3],
		"bad magic": append([]byte("XXXXXXXX"), good[8:]...),
	} {
		if _, err := decodeEntry(buf, k.Fingerprint()); err == nil {
			t.Errorf("%s: decoded successfully", name)
		}
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := decodeEntry(flipped, k.Fingerprint()); err == nil {
		t.Error("bit flip: decoded successfully")
	}
}

// A nil cache is a valid no-op handle everywhere but Run.
func TestNilCache(t *testing.T) {
	var c *Cache
	if c.Lookup(testKey(t, testProgram(t)), nil) != nil {
		t.Error("nil cache answered a lookup")
	}
	c.Store(CellKey{}, fakeEntry("RCF")) // must not panic
	if c.Dir() != "" {
		t.Error("nil cache claims a directory")
	}
	if _, _, err := c.Run(CellKey{}, nil, nil); err == nil {
		t.Error("nil cache Run did not error")
	}
}

// The workers knob must not reach the cell: campaigns run with 1 and 4
// workers share one key and produce byte-identical cache entries.
func TestWorkerCountInvariantCells(t *testing.T) {
	p := testProgram(t)
	var raws [][]byte
	var keys []CellKey
	for _, w := range []int{1, 4} {
		dir := t.TempDir()
		reg := obs.NewRegistry()
		k := testKey(t, p)
		_, cached, err := New(dir).Run(k, reg, func(m *obs.Registry) (*inject.Report, error) {
			cfg := core.Config{Technique: "RCF", Style: "CMOVcc", Policy: "ALLBB"}
			cfg.Workers, cfg.CkptInterval, cfg.Metrics = w, -1, m
			return core.InjectCtx(context.Background(), p, cfg, testSamples, testSeed)
		})
		if err != nil {
			t.Fatal(err)
		}
		if cached {
			t.Fatal("cold campaign claimed a cache hit")
		}
		raw, err := os.ReadFile(filepath.Join(dir, k.fileName()))
		if err != nil {
			t.Fatal(err)
		}
		raws = append(raws, raw)
		keys = append(keys, k)
	}
	if keys[0] != keys[1] {
		t.Errorf("worker counts produced distinct keys:\n %+v\n %+v", keys[0], keys[1])
	}
	if string(raws[0]) != string(raws[1]) {
		t.Error("worker counts produced byte-different cache entries")
	}
}
