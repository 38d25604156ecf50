// Package session implements the warm-session registry behind the batch
// injection service: one session per (workload, scale, technique, style,
// policy) configuration, holding the lazily built warm state of its
// program (an inject.Prepared: a translator snapshot or a static
// baseline's native state, with its recorded checkpoint log) so that
// repeated campaigns, on either engine and either backend, pay the
// warm-up and reference-run cost once. Warm state
// outlives the process only through the artifact tier (see
// internal/artifact): with one configured, a fresh process restores a
// published session instead of warming and recording it again.
//
// Warm-up, fault derivation and recording are all deterministic, so a
// campaign served from a session is byte-identical to the same campaign
// run cold by cfc-inject — the registry changes only where the time goes.
package session

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/artifact"
	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/fp"
	"repro/internal/graph"
	"repro/internal/inject"
	"repro/internal/isa"
	"repro/internal/obs"
)

// Key identifies one warm session: everything that shapes the snapshot and
// the checkpoint log. Campaign-level knobs (samples, seed, workers, the
// engine) are deliberately absent — they vary per request over the same
// session.
type Key struct {
	Workload  string  `json:"workload"`
	Scale     float64 `json:"scale"`
	Technique string  `json:"technique"`
	Style     string  `json:"style,omitempty"`
	Policy    string  `json:"policy,omitempty"`
}

// String renders the key as the canonical fingerprint the artifact tier
// builds on and the sessions endpoint reports.
func (k Key) String() string {
	return fmt.Sprintf("%s|%g|%s|%s|%s", k.Workload, k.Scale, k.Technique, k.Style, k.Policy)
}

// Session is one warm configuration: its key and its warm state, which
// holds the auto-spaced reference log (ckpt.AutoInterval(-1, clean
// steps)).
type Session struct {
	Key Key

	warm      *inject.Prepared
	campaigns atomic.Int64
}

// Campaigns returns how many campaigns this session has served.
func (s *Session) Campaigns() int64 { return s.campaigns.Load() }

// Log returns the session's checkpoint log.
func (s *Session) Log() *ckpt.Log { return s.warm.Log() }

// Spec is one campaign request against a session.
type Spec struct {
	Samples int
	Seed    int64
	// SampleOffset shifts the campaign onto global sample range
	// [SampleOffset, SampleOffset+Samples) — one shard of a fanned-out
	// campaign (see inject.Config.SampleOffset).
	SampleOffset int
}

// Run executes one campaign on the warm session. opts carries the
// per-request execution surface, the engine and backend included:
// CkptInterval -1 resumes samples from the session's log, 0 replays them
// in full (and ignores the log). The log is auto-spaced, so an explicit
// spacing is refused. The report is byte-identical to a cold cfc-inject
// run of the same configuration.
func (s *Session) Run(ctx context.Context, spec Spec, opts core.Options) (*inject.Report, error) {
	if err := core.CheckCkptInterval(opts.CkptInterval); err != nil {
		return nil, err
	}
	rep, err := s.warm.Run(ctx, inject.Config{
		Samples:      spec.Samples,
		Seed:         spec.Seed,
		SampleOffset: spec.SampleOffset,
		Options:      opts,
	})
	if err == nil {
		s.campaigns.Add(1)
	}
	return rep, err
}

// Config parameterizes a Registry.
type Config struct {
	// MaxSessions bounds the warm set; the least recently used session is
	// evicted when a build would exceed it. It bounds the built programs
	// (one per workload and scale) the same way. <= 0 means unbounded.
	MaxSessions int
	// Metrics, when non-nil, receives the registry's cache accounting
	// (session_{hits,misses,evictions,warm_builds,restores}_total) plus
	// the recording counters of every build.
	Metrics *obs.Registry
	// Graph, when non-nil, caches whole campaign cells by content key:
	// RunCell consults it before building a session, so a hit skips the
	// warm/record/inject pipeline entirely (see internal/graph).
	Graph *graph.Cache
	// Artifacts, when non-nil, is the warm-artifact tier: before building a
	// session locally the registry tries to fetch a published artifact
	// (snapshot + reference log) for the exact fingerprint, and after a
	// local build it publishes one back, so a cold replica pointed at a
	// warm store performs zero recordings and zero translations. Every
	// verification failure degrades to a local build (see internal/artifact).
	Artifacts *artifact.Client
}

// Registry builds sessions on demand, deduplicates concurrent builds of
// the same key, keeps the warm set under an LRU bound and shares program
// builds across sessions of the same (workload, scale).
type Registry struct {
	cfg Config

	// restoring counts in-flight artifact-tier restores, surfaced by the
	// health endpoint so a front door can tell "warming from the store"
	// apart from plain readiness.
	restoring atomic.Int64

	mu        sync.Mutex
	sessions  map[Key]*entry
	order     []Key // LRU, least recently used first
	programs  map[progKey]*progEntry
	progOrder []progKey // LRU, least recently used first
}

type entry struct {
	ready chan struct{} // closed when sess/err are set
	sess  *Session
	err   error
}

type progKey struct {
	workload string
	scale    float64
}

type progEntry struct {
	ready  chan struct{}
	prog   *isa.Program
	err    error
	digest func() string // fp.Program(prog), hashed on first use
}

// NewRegistry returns an empty registry.
func NewRegistry(cfg Config) *Registry {
	return &Registry{
		cfg:      cfg,
		sessions: map[Key]*entry{},
		programs: map[progKey]*progEntry{},
	}
}

// count bumps a registry accounting counter.
func (r *Registry) count(name string) {
	if r.cfg.Metrics != nil {
		r.cfg.Metrics.Counter(name).Add(1)
	}
}

// Session returns the warm session for k, building it on first use. k
// may spell its configuration any way check.Identify accepts: the session
// is keyed by the canonical names. A concurrent second request for the
// same key waits for the in-flight build instead of duplicating it. ctx
// bounds the wait and the build.
func (r *Registry) Session(ctx context.Context, k Key) (*Session, error) {
	id, err := check.Identify(k.Technique, k.Style, k.Policy)
	if err != nil {
		return nil, err
	}
	k.Technique, k.Style, k.Policy = id.Names()
	r.mu.Lock()
	if e, ok := r.sessions[k]; ok {
		r.order = touch(r.order, k)
		r.mu.Unlock()
		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if e.err == nil {
			r.count("session_hits_total")
		}
		return e.sess, e.err
	}
	e := &entry{ready: make(chan struct{})}
	r.sessions[k] = e
	r.order = append(r.order, k)
	r.evictLocked()
	r.mu.Unlock()
	r.count("session_misses_total")

	e.sess, e.err = r.build(ctx, k)
	close(e.ready)
	r.mu.Lock()
	if e.err != nil && r.sessions[k] == e {
		// A failed build must not poison the key forever (the failure may
		// be a canceled context).
		delete(r.sessions, k)
		r.order = dropKey(r.order, k)
	}
	// Evict again once the build is done: builds in flight are never
	// evicted, so concurrent first requests for more keys than the bound
	// leave the warm set over it until the last of them finishes.
	r.evictLocked()
	r.mu.Unlock()
	return e.sess, e.err
}

// Graph returns the registry's cell cache (nil when disabled).
func (r *Registry) Graph() *graph.Cache { return r.cfg.Graph }

// RunCell resolves one campaign cell — Session+Run fused behind the
// graph cache. With no cache configured it builds the session and runs as
// always. With one, the cell's content key (program bytes, configuration,
// engine identity, from opts) is looked up first: a hit returns the cached
// normalized report without even building the session; a miss builds,
// runs, and stores the result for next time. cached reports which path
// answered. Reports are byte-identical either way, except that cached
// reports carry zero Workers/Elapsed (wall clock was not spent).
func (r *Registry) RunCell(ctx context.Context, k Key, spec Spec, opts core.Options) (*inject.Report, bool, error) {
	g := r.cfg.Graph
	if g == nil {
		sess, err := r.Session(ctx, k)
		if err != nil {
			return nil, false, err
		}
		rep, err := sess.Run(ctx, spec, opts)
		return rep, false, err
	}
	ck, err := r.cellKey(k, spec, opts)
	if err != nil {
		return nil, false, err
	}
	return g.Run(ck, opts.Metrics, func(m *obs.Registry) (*inject.Report, error) {
		sess, err := r.Session(ctx, k)
		if err != nil {
			return nil, err
		}
		copts := opts
		copts.Metrics = m
		return sess.Run(ctx, spec, copts)
	})
}

// cellKey is graph.KeyFor for the campaign cell (k, spec) under opts's
// engine and backend, from the program's memoized digest: a program is
// hashed once per registry, not once per request.
func (r *Registry) cellKey(k Key, spec Spec, opts core.Options) (graph.CellKey, error) {
	pe, err := r.programEntry(k.Workload, k.Scale)
	if err != nil {
		return graph.CellKey{}, err
	}
	return graph.KeyForDigest(pe.prog.Name, pe.digest(), k.Technique, k.Style, k.Policy, spec.Samples, spec.Seed,
		spec.SampleOffset, opts.CkptInterval, opts.Backend, inject.DefaultMaxSteps), nil
}

// touch moves k to the most-recently-used end of an LRU order.
func touch[K comparable](order []K, k K) []K {
	return append(dropKey(order, k), k)
}

// dropKey removes k from an LRU order.
func dropKey[K comparable](order []K, k K) []K {
	if i := slices.Index(order, k); i >= 0 {
		return slices.Delete(order, i, i+1)
	}
	return order
}

// evictLRU deletes the least recently used entries of m, in order, until
// m holds at most bound. Entries whose ready channel is still open (a
// build in flight) are skipped. It returns the shortened
// order and the number of entries evicted.
func evictLRU[K comparable, E any](m map[K]E, order []K, bound int, ready func(E) chan struct{}) ([]K, int) {
	evicted := 0
	for i := 0; len(m) > bound && i < len(order); {
		k := order[i]
		select {
		case <-ready(m[k]):
			delete(m, k)
			order = slices.Delete(order, i, i+1)
			evicted++
		default:
			i++ // in flight; try the next oldest
		}
	}
	return order, evicted
}

// evictLocked drops least-recently-used completed sessions until the warm
// set fits the bound. In-flight builds are never evicted.
func (r *Registry) evictLocked() {
	if r.cfg.MaxSessions <= 0 {
		return
	}
	var n int
	r.order, n = evictLRU(r.sessions, r.order, r.cfg.MaxSessions, func(e *entry) chan struct{} { return e.ready })
	for range n {
		r.count("session_evictions_total")
	}
}

// Program returns the built workload for (workload, scale), deduplicated
// with the sessions that use it. The bench suite builds its workloads
// through the registry so HTTP-driven benchmarks and campaigns share one
// program build per configuration.
func (r *Registry) Program(workload string, scale float64) (*isa.Program, error) {
	pe, err := r.programEntry(workload, scale)
	if err != nil {
		return nil, err
	}
	return pe.prog, nil
}

// programEntry returns the built workload and its memoized content hash,
// shared across every session (and technique) using the same (workload,
// scale).
func (r *Registry) programEntry(workload string, scale float64) (*progEntry, error) {
	pk := progKey{workload, scale}
	r.mu.Lock()
	pe, ok := r.programs[pk]
	if ok {
		r.progOrder = touch(r.progOrder, pk)
	} else {
		pe = &progEntry{ready: make(chan struct{})}
		r.programs[pk] = pe
		r.progOrder = append(r.progOrder, pk)
	}
	r.mu.Unlock()
	if ok {
		<-pe.ready
		return pe, pe.err
	}
	pe.prog, pe.err = core.Workload(workload, scale)
	if pe.err == nil {
		prog := pe.prog
		pe.digest = sync.OnceValue(func() string { return fp.Program(prog) })
	}
	close(pe.ready)
	r.mu.Lock()
	if pe.err != nil && r.programs[pk] == pe {
		delete(r.programs, pk)
		r.progOrder = dropKey(r.progOrder, pk)
	}
	// Evict once the build is done, not when it starts: builds in flight
	// are never evicted, so the last of concurrent builds to finish is the
	// one that can bring the table back within its bound.
	if r.cfg.MaxSessions > 0 {
		r.progOrder, _ = evictLRU(r.programs, r.progOrder, r.cfg.MaxSessions,
			func(e *progEntry) chan struct{} { return e.ready })
	}
	r.mu.Unlock()
	return pe, pe.err
}

// build constructs the session for k: the program, its warm state and
// the auto-spaced reference log, unless the artifact tier restores all of
// it. The build's warm-up and recording count on the registry's metrics.
func (r *Registry) build(ctx context.Context, k Key) (*Session, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pe, err := r.programEntry(k.Workload, k.Scale)
	if err != nil {
		return nil, err
	}
	p, cfg, opts, err := core.Config{
		Technique: k.Technique, Style: k.Style, Policy: k.Policy,
		Options: core.Options{Metrics: r.cfg.Metrics},
	}.Target(pe.prog)
	if err != nil {
		return nil, err
	}
	s := &Session{Key: k}
	afp := r.artifactFingerprint(k, pe)
	if s.warm = r.restore(afp, p, cfg, opts); s.warm != nil {
		return s, nil
	}
	if s.warm, err = inject.Prepare(p, cfg, opts...); err != nil {
		return nil, err
	}
	if _, err := s.warm.Record(ckpt.AutoInterval(-1, s.warm.CleanSteps()), inject.DefaultMaxSteps); err != nil {
		return nil, err
	}
	r.count("session_warm_builds_total")
	r.publishArtifact(s, afp, pe)
	return s, nil
}

// artifactFingerprint derives the warm-artifact identity for the session
// of key k: the key plus everything that shapes the warm state but is not
// in the key (program content, step budget, engine and technique
// versions). "" disables the tier for this build.
func (r *Registry) artifactFingerprint(k Key, pe *progEntry) string {
	if r.cfg.Artifacts == nil {
		return ""
	}
	return artifact.Fingerprint(k.String(), k.Technique, pe.digest(), inject.DefaultMaxSteps)
}

// restore rebuilds the warm state of p under cfg and opts from a fetched
// artifact (inject.Restore). It returns nil on any shortfall (no
// artifact, a piece missing or inconsistent, a Static flag that is not
// the state's), and the caller builds locally, so a bad artifact can
// never poison the registry. A restored session performs zero reference
// recordings and zero block translations; its campaigns are
// byte-identical to a locally built session's.
func (r *Registry) restore(afp string, p *isa.Program, cfg inject.Config, opts []inject.ExecOption) *inject.Prepared {
	if afp == "" {
		return nil
	}
	r.restoring.Add(1)
	defer r.restoring.Add(-1)
	a := r.cfg.Artifacts.Fetch(afp)
	if a == nil {
		return nil
	}
	w, err := inject.Restore(p, cfg, a.Snapshot, a.CleanSteps, a.Log, opts...)
	if err != nil || w.Static() != a.Static {
		return nil
	}
	r.count("session_restores_total")
	return w
}

// publishArtifact ships the locally built session to the artifact tier,
// best effort: an unexportable snapshot or a store failure degrades to
// not publishing, never to a build error.
func (r *Registry) publishArtifact(s *Session, afp string, pe *progEntry) {
	if afp == "" {
		return
	}
	st, err := s.warm.State()
	if err != nil {
		return
	}
	r.cfg.Artifacts.Publish(&artifact.Artifact{
		Key:         s.Key.String(),
		ProgramHash: pe.digest(),
		MaxSteps:    inject.DefaultMaxSteps,
		CleanSteps:  s.warm.CleanSteps(),
		Static:      s.warm.Static(),
		Log:         s.warm.Log(),
		Snapshot:    st,
	}, afp)
}

// Info describes one warm session for the sessions endpoint.
type Info struct {
	Key
	Campaigns  int64  `json:"campaigns"`
	CleanSteps uint64 `json:"clean_steps"`
	Points     int    `json:"ckpt_points,omitempty"`
	LogBytes   uint64 `json:"ckpt_bytes,omitempty"`
}

// List snapshots the warm set, sorted by key fingerprint so the output is
// stable across calls and internal map order.
func (r *Registry) List() []Info {
	r.mu.Lock()
	var ready []*Session
	for _, e := range r.sessions {
		select {
		case <-e.ready:
			if e.err == nil && e.sess != nil {
				ready = append(ready, e.sess)
			}
		default:
		}
	}
	r.mu.Unlock()
	sort.Slice(ready, func(a, b int) bool {
		return ready[a].Key.String() < ready[b].Key.String()
	})
	infos := make([]Info, 0, len(ready))
	for _, s := range ready {
		log := s.Log()
		infos = append(infos, Info{Key: s.Key, Campaigns: s.Campaigns(), CleanSteps: s.warm.CleanSteps(),
			Points: len(log.Points), LogBytes: log.Bytes})
	}
	return infos
}

// Restoring reports whether any session build is currently pulling a warm
// artifact from the tier (populating the warm set from the store).
func (r *Registry) Restoring() bool { return r.restoring.Load() > 0 }

// Len returns the number of warm (or building) sessions.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}
