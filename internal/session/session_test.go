package session

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/comp"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/inject"
	"repro/internal/obs"
)

// The test key family: one real workload at a tiny scale so every build
// (program + warm-up + reference recording) stays in the tens of
// milliseconds.
const (
	testWorkload = "164.gzip"
	testScale    = 0.02
	testSamples  = 40
)

func testKey(tech string, iv int64) Key {
	return Key{
		Workload:     testWorkload,
		Scale:        testScale,
		Technique:    tech,
		Style:        "CMOVcc",
		Policy:       "ALLBB",
		CkptInterval: iv,
	}
}

func mustSession(t *testing.T, r *Registry, k Key) *Session {
	t.Helper()
	s, err := r.Session(context.Background(), k)
	if err != nil {
		t.Fatalf("session %v: %v", k, err)
	}
	return s
}

func counter(reg *obs.Registry, name string) uint64 {
	return reg.Snapshot().Counters[name]
}

// recordings sums ckpt_recordings_total across techniques: the "did any
// reference run actually re-record" signal the warm-cache CI check gates
// on.
func recordings(reg *obs.Registry) uint64 {
	var n uint64
	for name, v := range reg.Snapshot().Counters {
		if strings.HasPrefix(name, "ckpt_recordings_total") {
			n += v
		}
	}
	return n
}

// Cache accounting: first use of a key is a miss, reuse is a hit, and the
// LRU bound evicts the coldest completed session.
func TestRegistryHitMissEviction(t *testing.T) {
	reg := obs.NewRegistry()
	r := NewRegistry(Config{MaxSessions: 1, Metrics: reg})

	a, b := testKey("none", 0), testKey("RCF", 0)
	first := mustSession(t, r, a)
	if again := mustSession(t, r, a); again != first {
		t.Error("second lookup built a new session instead of reusing")
	}
	mustSession(t, r, b)
	if got := r.Len(); got != 1 {
		t.Errorf("warm set holds %d sessions, want 1 (MaxSessions)", got)
	}
	if got := counter(reg, "session_misses_total"); got != 2 {
		t.Errorf("misses = %d, want 2", got)
	}
	if got := counter(reg, "session_hits_total"); got != 1 {
		t.Errorf("hits = %d, want 1", got)
	}
	if got := counter(reg, "session_evictions_total"); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	// The evicted key rebuilds: a third miss, not an error.
	mustSession(t, r, a)
	if got := counter(reg, "session_misses_total"); got != 3 {
		t.Errorf("misses after rebuild = %d, want 3", got)
	}
}

// Persistence round trip: a second registry on the same cache directory
// must load the recorded log from disk — zero re-recordings — and serve
// campaigns byte-identical to the registry that recorded it.
func TestDiskPersistenceRoundTrip(t *testing.T) {
	for _, tech := range []string{"RCF", "CFCSS"} {
		t.Run(tech, func(t *testing.T) {
			dir := t.TempDir()
			k := testKey(tech, -1)

			reg1 := obs.NewRegistry()
			r1 := NewRegistry(Config{CacheDir: dir, Metrics: reg1})
			s1 := mustSession(t, r1, k)
			if s1.FromDisk {
				t.Error("cold build claims FromDisk")
			}
			if got := recordings(reg1); got != 1 {
				t.Errorf("cold build recordings = %d, want 1", got)
			}
			if got := counter(reg1, "ckpt_disk_rerecords_total"); got != 1 {
				t.Errorf("cold build rerecords = %d, want 1", got)
			}
			if _, err := os.Stat(filepath.Join(dir, k.fileName())); err != nil {
				t.Fatalf("cache file not written: %v", err)
			}

			reg2 := obs.NewRegistry()
			r2 := NewRegistry(Config{CacheDir: dir, Metrics: reg2})
			s2 := mustSession(t, r2, k)
			if !s2.FromDisk {
				t.Error("warmed-cache build did not load from disk")
			}
			if got := recordings(reg2); got != 0 {
				t.Errorf("warmed-cache build recordings = %d, want 0", got)
			}
			if got := counter(reg2, "ckpt_disk_hits_total"); got != 1 {
				t.Errorf("disk hits = %d, want 1", got)
			}
			if !reflect.DeepEqual(s2.Log(), s1.Log()) {
				t.Fatal("decoded log differs from recorded log")
			}
			// Bit-identical machine reconstruction from the loaded log.
			orig, dec := s1.Log().NewReplayer(), s2.Log().NewReplayer()
			for _, pt := range []int{0, len(s1.Log().Points) - 1} {
				if !reflect.DeepEqual(dec.Machine(pt), orig.Machine(pt)) {
					t.Fatalf("point %d: restored machine differs", pt)
				}
			}

			// Byte-identical campaigns across the two processes' sessions.
			opts := core.Options{Workers: 2}
			rep1, err := s1.Run(context.Background(), Spec{Samples: testSamples, Seed: 7}, opts)
			if err != nil {
				t.Fatal(err)
			}
			rep2, err := s2.Run(context.Background(), Spec{Samples: testSamples, Seed: 7}, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := inject.FormatNormalized(rep2), inject.FormatNormalized(rep1); got != want {
				t.Errorf("warm report differs from cold\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

// A corrupt cache file must fall back to re-recording (and heal the file
// for the next process), never fail the build or poison the report.
func TestCorruptCacheFallsBack(t *testing.T) {
	dir := t.TempDir()
	k := testKey("RCF", -1)
	path := filepath.Join(dir, k.fileName())
	if err := os.WriteFile(path, []byte("not a checkpoint log"), 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	r := NewRegistry(Config{CacheDir: dir, Metrics: reg})
	s := mustSession(t, r, k)
	if s.FromDisk {
		t.Error("corrupt file was trusted")
	}
	if got := counter(reg, "ckpt_disk_corrupt_total"); got != 1 {
		t.Errorf("corrupt = %d, want 1", got)
	}
	if got := counter(reg, "ckpt_disk_rerecords_total"); got != 1 {
		t.Errorf("rerecords = %d, want 1", got)
	}

	// The re-recording overwrote the garbage: a fresh registry now hits.
	reg2 := obs.NewRegistry()
	r2 := NewRegistry(Config{CacheDir: dir, Metrics: reg2})
	if s2 := mustSession(t, r2, k); !s2.FromDisk {
		t.Error("healed cache file not loaded")
	}
	if got := counter(reg2, "ckpt_disk_hits_total"); got != 1 {
		t.Errorf("disk hits after heal = %d, want 1", got)
	}
}

// A structurally valid file recorded under a different configuration
// (wrong fingerprint, or right fingerprint but wrong geometry) is stale:
// re-record, don't trust it.
func TestStaleCacheFallsBack(t *testing.T) {
	dir := t.TempDir()
	k := testKey("RCF", -1)

	// Record once to obtain a genuine log to tamper with.
	seed := mustSession(t, NewRegistry(Config{CacheDir: dir}), k)
	path := filepath.Join(dir, k.fileName())

	t.Run("wrong fingerprint", func(t *testing.T) {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := seed.Log().EncodeTo(f, "some|other|key"); err != nil {
			t.Fatal(err)
		}
		f.Close()
		reg := obs.NewRegistry()
		s := mustSession(t, NewRegistry(Config{CacheDir: dir, Metrics: reg}), k)
		if s.FromDisk {
			t.Error("stale-fingerprint file was trusted")
		}
		if got := counter(reg, "ckpt_disk_corrupt_total"); got != 0 {
			t.Errorf("stale counted as corrupt (%d)", got)
		}
		if got := counter(reg, "ckpt_disk_rerecords_total"); got != 1 {
			t.Errorf("rerecords = %d, want 1", got)
		}
	})

	t.Run("wrong geometry", func(t *testing.T) {
		tampered := *seed.Log()
		tampered.Interval++
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := tampered.EncodeTo(f, k.String()); err != nil {
			t.Fatal(err)
		}
		f.Close()
		reg := obs.NewRegistry()
		s := mustSession(t, NewRegistry(Config{CacheDir: dir, Metrics: reg}), k)
		if s.FromDisk {
			t.Error("wrong-geometry file was trusted")
		}
		if got := counter(reg, "ckpt_disk_stale_total"); got != 1 {
			t.Errorf("stale = %d, want 1", got)
		}
		if got := counter(reg, "ckpt_disk_rerecords_total"); got != 1 {
			t.Errorf("rerecords = %d, want 1", got)
		}
	})
}

// Evicting a session sweeps its on-disk log exactly when the file is
// version-stale: dead bytes (a log recorded under another fingerprint)
// are deleted, a valid file stays for the key's next build.
func TestEvictionSweepsStaleDiskLog(t *testing.T) {
	dir := t.TempDir()
	a, b := testKey("RCF", -1), testKey("none", -1)
	reg := obs.NewRegistry()
	r := NewRegistry(Config{CacheDir: dir, MaxSessions: 1, Metrics: reg})

	sa := mustSession(t, r, a)
	path := filepath.Join(dir, a.fileName())
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("cache file not written: %v", err)
	}

	// Replace a's log with one recorded under a different fingerprint —
	// the shape a version bump or config change leaves behind — and evict.
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sa.Log().EncodeTo(f, "some|other|key"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	mustSession(t, r, b) // evicts a
	if got := counter(reg, "session_evictions_total"); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("stale log survived eviction (stat: %v)", err)
	}
	if got := counter(reg, "ckpt_disk_stale_deleted_total"); got != 1 {
		t.Errorf("stale deletions = %d, want 1", got)
	}

	// Control: a valid file must survive its session's eviction — it is
	// exactly what the next build of the same key loads.
	mustSession(t, r, a) // rebuilds and rewrites the file, evicts b
	mustSession(t, r, b) // evicts a again, now with a valid file
	if _, err := os.Stat(path); err != nil {
		t.Errorf("valid log deleted on eviction: %v", err)
	}
	if got := counter(reg, "ckpt_disk_stale_deleted_total"); got != 1 {
		t.Errorf("stale deletions after valid eviction = %d, want 1", got)
	}
}

// RunCell behind a graph cache: the first call computes through a session,
// the second answers from the cache without touching the session layer,
// and both render identically.
func TestRunCellGraphCache(t *testing.T) {
	reg := obs.NewRegistry()
	r := NewRegistry(Config{Metrics: reg, Graph: graph.New("")})
	k := testKey("RCF", -1)
	spec := Spec{Samples: testSamples, Seed: 7}
	opts := core.Options{Metrics: reg}

	rep1, cached1, err := r.RunCell(context.Background(), k, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cached1 {
		t.Error("cold cell claimed a cache hit")
	}
	if got := counter(reg, "session_misses_total"); got != 1 {
		t.Errorf("cold cell session misses = %d, want 1", got)
	}

	rep2, cached2, err := r.RunCell(context.Background(), k, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !cached2 {
		t.Error("warm cell missed the cache")
	}
	// The hit answered before the session layer: no new build, no hit.
	if got := counter(reg, "session_misses_total") + counter(reg, "session_hits_total"); got != 1 {
		t.Errorf("warm cell touched the session layer (hits+misses = %d, want 1)", got)
	}
	if got, want := inject.FormatNormalized(rep2), inject.FormatNormalized(rep1); got != want {
		t.Errorf("cached cell renders differently\n got: %s\nwant: %s", got, want)
	}

	// Without a cache RunCell is Session+Run: never cached.
	r2 := NewRegistry(Config{})
	if _, cached, err := r2.RunCell(context.Background(), k, spec, core.Options{}); err != nil || cached {
		t.Errorf("uncached RunCell: cached=%v err=%v", cached, err)
	}
}

// RunCell keys its cell from the registry's memoized program digest; the
// key must be the one graph.KeyFor derives by hashing the program afresh.
func TestRunCellKeyMatchesKeyFor(t *testing.T) {
	r := NewRegistry(Config{Graph: graph.New("")})
	k := testKey("RCF", -1)
	spec := Spec{Samples: testSamples, Seed: 7, SampleOffset: 3}
	got, err := r.cellKey(k, spec, comp.BackendAuto)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := r.Program(k.Workload, k.Scale)
	if err != nil {
		t.Fatal(err)
	}
	want := graph.KeyFor(prog, k.Technique, k.Style, k.Policy, spec.Samples, spec.Seed,
		spec.SampleOffset, k.CkptInterval, comp.BackendAuto, 0)
	if got != want {
		t.Fatalf("RunCell key differs from graph.KeyFor\n got: %+v\nwant: %+v", got, want)
	}
	if _, _, err := r.RunCell(context.Background(), k, spec, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if r.Graph().Lookup(want, nil) == nil {
		t.Error("RunCell stored its cell under a key graph.KeyFor does not find")
	}
}

// N static campaigns on one session share one native warm state: the
// session warms once and every campaign freezes the same reached starts.
func TestStaticCampaignsReuseNativeWarmState(t *testing.T) {
	reg := obs.NewRegistry()
	r := NewRegistry(Config{Metrics: reg})
	k := testKey("CFCSS", -1)
	var native *inject.Native
	var frozen comp.Stats
	for i := 0; i < 4; i++ {
		s := mustSession(t, r, k)
		if s.native == nil {
			t.Fatal("static session holds no native warm state")
		}
		if native == nil {
			native = s.native
		} else if s.native != native {
			t.Fatalf("campaign %d: session warm state was rebuilt", i)
		}
		rep, err := s.Run(context.Background(), Spec{Samples: testSamples, Seed: int64(i)}, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			frozen = rep.WarmCompiled
		} else if rep.WarmCompiled != frozen {
			t.Errorf("campaign %d froze %+v, first campaign %+v", i, rep.WarmCompiled, frozen)
		}
	}
	if got := counter(reg, "session_warm_builds_total"); got != 1 {
		t.Errorf("warm builds = %d, want 1", got)
	}
	if got := counter(reg, "session_hits_total"); got != 3 {
		t.Errorf("session hits = %d, want 3", got)
	}
	if frozen.BlocksCompiled == 0 {
		t.Error("static campaigns froze no compiled blocks")
	}
}

// Campaigns on a warm static session are byte-identical to cold
// inject.Execute runs in any order, compiled-backend and engine telemetry
// included: the frozen engine the session's campaigns share carries
// nothing from one campaign into the next.
func TestStaticSessionCampaignsMatchColdInAnyOrder(t *testing.T) {
	render := func(rep *inject.Report) string {
		r := *rep
		r.Elapsed = 0
		return inject.FormatReport(&r)
	}
	base, err := core.Workload(testWorkload, testScale)
	if err != nil {
		t.Fatal(err)
	}
	p, err := check.InstrumentStatic(base, check.StaticCFCSS)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := core.ParsePolicy("ALLBB")
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Workers: 1}
	want := map[int64]string{}
	for _, seed := range []int64{1, 2, 3} {
		cfg := inject.Config{Policy: pol, Samples: testSamples, Seed: seed, Options: opts}
		cfg.CkptInterval = -1
		rep, err := inject.Execute(context.Background(), p, cfg, inject.AsStatic("CFCSS"))
		if err != nil {
			t.Fatal(err)
		}
		want[seed] = render(rep)
	}
	for _, order := range [][]int64{{1, 2, 3}, {3, 1, 2}, {2, 3, 1}} {
		s := mustSession(t, NewRegistry(Config{}), testKey("CFCSS", -1))
		for _, seed := range order {
			rep, err := s.Run(context.Background(), Spec{Samples: testSamples, Seed: seed}, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := render(rep); got != want[seed] {
				t.Errorf("order %v, seed %d: warm session report differs from cold\n got:\n%s\nwant:\n%s", order, seed, got, want[seed])
			}
		}
	}
}

// Validate rejects bad campaign-independent fields without building.
func TestValidate(t *testing.T) {
	r := NewRegistry(Config{})
	if err := r.Validate(testKey("RCF", -1)); err != nil {
		t.Errorf("valid key rejected: %v", err)
	}
	if err := r.Validate(testKey("CFCSS", 0)); err != nil {
		t.Errorf("static technique rejected: %v", err)
	}
	for name, k := range map[string]Key{
		"workload":  {Workload: "999.nope", Technique: "RCF", Style: "CMOVcc", Policy: "ALLBB"},
		"technique": {Workload: testWorkload, Technique: "XYZ", Style: "CMOVcc", Policy: "ALLBB"},
		"style":     {Workload: testWorkload, Technique: "RCF", Style: "weird", Policy: "ALLBB"},
		"policy":    {Workload: testWorkload, Technique: "RCF", Style: "CMOVcc", Policy: "nope"},
	} {
		if err := r.Validate(k); err == nil {
			t.Errorf("bad %s accepted", name)
		}
	}
}

// Concurrent first requests for one key must share a single build.
func TestConcurrentBuildsDeduplicate(t *testing.T) {
	reg := obs.NewRegistry()
	r := NewRegistry(Config{Metrics: reg})
	k := testKey("RCF", 0)

	const n = 8
	got := make(chan *Session, n)
	for i := 0; i < n; i++ {
		go func() {
			s, err := r.Session(context.Background(), k)
			if err != nil {
				t.Error(err)
			}
			got <- s
		}()
	}
	first := <-got
	for i := 1; i < n; i++ {
		if s := <-got; s != first {
			t.Fatal("concurrent requests produced distinct sessions")
		}
	}
	if got := counter(reg, "session_misses_total"); got != 1 {
		t.Errorf("misses = %d, want 1 (single-flight)", got)
	}
}

// A canceled build must not poison the key: the next request rebuilds.
func TestCanceledBuildDoesNotPoisonKey(t *testing.T) {
	r := NewRegistry(Config{})
	k := testKey("RCF", 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Session(ctx, k); err == nil {
		t.Fatal("canceled build succeeded")
	}
	mustSession(t, r, k)
}
