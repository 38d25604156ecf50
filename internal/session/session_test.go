package session

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/check"
	"repro/internal/comp"
	"repro/internal/core"
	"repro/internal/fp"
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

// A registry bounded by MaxSessions keeps at most that many built
// programs, least recently used first, and campaigns at every scale stay
// correct across the evictions; an unbounded registry keeps them all.
func TestProgramTableBounded(t *testing.T) {
	const seed = 7
	scales := []float64{0.02, 0.03, 0.04, 0.02}
	want := map[float64]string{}
	for _, scale := range scales {
		p, err := core.Workload(testWorkload, scale)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.Config{Technique: "RCF", Style: "CMOVcc", Policy: "ALLBB"}
		cfg.Workers, cfg.CkptInterval = 1, -1
		rep, err := core.InjectCtx(context.Background(), p, cfg, testSamples, seed)
		if err != nil {
			t.Fatal(err)
		}
		want[scale] = inject.FormatNormalized(rep)
	}
	for _, tc := range []struct {
		maxSessions, programs int
	}{{2, 2}, {0, 3}} {
		r := NewRegistry(Config{MaxSessions: tc.maxSessions})
		for _, scale := range scales {
			k := testKey("RCF", -1)
			k.Scale = scale
			rep, _, err := r.RunCell(context.Background(), k, Spec{Samples: testSamples, Seed: seed}, core.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if got := inject.FormatNormalized(rep); got != want[scale] {
				t.Errorf("MaxSessions %d, scale %v: report differs from a cold run\n got:\n%s\nwant:\n%s",
					tc.maxSessions, scale, got, want[scale])
			}
		}
		r.mu.Lock()
		programs, order := len(r.programs), len(r.progOrder)
		r.mu.Unlock()
		if programs != tc.programs || order != programs {
			t.Errorf("MaxSessions %d: %d programs (%d in LRU order), want %d",
				tc.maxSessions, programs, order, tc.programs)
		}
	}
}

// A cell evicted from the cell cache's memory layer recomputes a
// byte-identical report, and the recompute is stored again: the request
// after it is a hit.
func TestEvictedCellRecomputes(t *testing.T) {
	r := NewRegistry(Config{Graph: graph.New("")})
	k := testKey("RCF", -1)
	spec := Spec{Samples: testSamples, Seed: 7}
	run := func(wantCached bool) string {
		t.Helper()
		rep, cached, err := r.RunCell(context.Background(), k, spec, core.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if cached != wantCached {
			t.Fatalf("cached = %v, want %v", cached, wantCached)
		}
		return inject.FormatNormalized(rep)
	}
	first := run(false)

	// Crowd the cell out with 1 MiB entries under other seeds, twice as
	// many each round: a probe that still hits makes the cell the most
	// recently used again.
	ck, err := r.cellKey(k, spec, comp.BackendAuto)
	if err != nil {
		t.Fatal(err)
	}
	pad := &graph.Entry{Report: &inject.Report{}, Normalized: strings.Repeat("x", 1<<20)}
	other := ck
	for n := 1; r.Graph().Lookup(ck, nil) != nil; n *= 2 {
		if n > 64 {
			t.Fatal("127 MiB of other cells did not evict the cell")
		}
		for range n {
			other.Seed++
			r.Graph().Store(other, pad)
		}
	}

	if got := run(false); got != first {
		t.Errorf("recomputed cell differs\n got:\n%s\nwant:\n%s", got, first)
	}
	if got := run(true); got != first {
		t.Errorf("cell stored after the recompute differs\n got:\n%s\nwant:\n%s", got, first)
	}
}

// Concurrent program lookups across more scales than a MaxSessions-bounded
// table holds: every caller gets its own scale's program, and the table
// ends within its bound. Run it under -race.
func TestProgramTableConcurrent(t *testing.T) {
	scales := []float64{0.01, 0.02, 0.03}
	want := map[float64]string{}
	for _, scale := range scales {
		p, err := core.Workload(testWorkload, scale)
		if err != nil {
			t.Fatal(err)
		}
		want[scale] = fp.Program(p)
	}
	r := NewRegistry(Config{MaxSessions: 1})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 6; n++ {
				scale := scales[(g+n)%len(scales)]
				p, err := r.Program(testWorkload, scale)
				if err != nil {
					t.Error(err)
					return
				}
				if fp.Program(p) != want[scale] {
					t.Errorf("scale %v: got another scale's program", scale)
				}
			}
		}(g)
	}
	wg.Wait()
	r.mu.Lock()
	programs, order := len(r.programs), len(r.progOrder)
	r.mu.Unlock()
	if programs != 1 || order != 1 {
		t.Errorf("%d programs (%d in LRU order), want 1", programs, order)
	}
}
