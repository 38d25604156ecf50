// Package session implements the warm-session registry behind the batch
// injection service: one session per (workload, scale, technique, style,
// policy, checkpoint-interval) configuration, holding the lazily built
// program, its warm state (a translator snapshot, or the native warm
// state of a static baseline) and the recorded checkpoint log so that
// repeated campaigns pay the warm-up and reference-run cost once. Warm
// state outlives the process only through the artifact tier (see
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
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/artifact"
	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/comp"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dbt"
	"repro/internal/fp"
	"repro/internal/graph"
	"repro/internal/inject"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/workloads"
)

// Key identifies one warm session: everything that shapes the snapshot and
// the checkpoint log. Campaign-level knobs (samples, seed, workers) are
// deliberately absent — they vary per request over the same session.
type Key struct {
	Workload     string
	Scale        float64
	Technique    string
	Style        string
	Policy       string
	CkptInterval int64
}

// String renders the key as the canonical fingerprint the artifact tier
// builds on and the sessions endpoint reports.
func (k Key) String() string {
	return fmt.Sprintf("%s|%g|%s|%s|%s|%d",
		k.Workload, k.Scale, k.Technique, k.Style, k.Policy, k.CkptInterval)
}

// Session is one warm configuration: the built (and, for the static
// baselines, instrumented) program, its warm state (the stabilized
// translator snapshot, or the native warm state of a static baseline),
// the clean-run geometry and — when the checkpoint engine is selected —
// the recorded reference log.
type Session struct {
	Key Key

	prog       *isa.Program
	static     bool
	tech       dbt.Technique // nil for static baselines
	pol        dbt.Policy
	label      string         // canonical technique label ("RCF", "CFCSS", ...)
	snap       *dbt.Snapshot  // nil for static baselines
	native     *inject.Native // static baselines only
	cleanSteps uint64
	log        *ckpt.Log // nil when CkptInterval == 0

	mu        sync.Mutex
	campaigns int64
}

// Campaigns returns how many campaigns this session has served.
func (s *Session) Campaigns() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.campaigns
}

// Log returns the session's checkpoint log (nil for full-replay sessions).
func (s *Session) Log() *ckpt.Log { return s.log }

// Label returns the canonical technique label campaigns report under.
func (s *Session) Label() string { return s.label }

// CleanSteps returns the length of the clean reference run in steps.
func (s *Session) CleanSteps() uint64 { return s.cleanSteps }

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
// per-request execution surface; its CkptInterval is overridden by the
// session key's (the log was recorded for that interval). The report is
// byte-identical to a cold cfc-inject run of the same configuration.
func (s *Session) Run(ctx context.Context, spec Spec, opts core.Options) (*inject.Report, error) {
	cfg := inject.Config{
		Samples:      spec.Samples,
		Seed:         spec.Seed,
		SampleOffset: spec.SampleOffset,
		Options:      opts,
	}
	cfg.CkptInterval = s.Key.CkptInterval
	var rep *inject.Report
	var err error
	if s.static {
		cfg.Policy = s.pol
		rep, err = inject.Execute(ctx, s.prog, cfg,
			inject.AsStatic(s.label), inject.WithNative(s.native), inject.WithRecording(s.log))
	} else {
		cfg.Technique, cfg.Policy = s.tech, s.pol
		rep, err = inject.Execute(ctx, s.prog, cfg,
			inject.WithSnapshot(s.snap, s.cleanSteps), inject.WithRecording(s.log))
	}
	if err == nil {
		s.mu.Lock()
		s.campaigns++
		s.mu.Unlock()
	}
	return rep, err
}

// Config parameterizes a Registry.
type Config struct {
	// MaxSessions bounds the warm set; the least recently used session is
	// evicted when a build would exceed it. It bounds the built programs
	// (one per workload and scale) the same way. <= 0 means unbounded.
	MaxSessions int
	// MaxSteps bounds every clean and reference run (0 =
	// inject.DefaultMaxSteps).
	MaxSteps uint64
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
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = inject.DefaultMaxSteps
	}
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

// Session returns the warm session for k, building it on first use. A
// concurrent second request for the same key waits for the in-flight
// build instead of duplicating it. ctx bounds the wait and the build.
func (r *Registry) Session(ctx context.Context, k Key) (*Session, error) {
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
	if e.err != nil {
		// A failed build must not poison the key forever (the failure may
		// be a canceled context).
		r.mu.Lock()
		if r.sessions[k] == e {
			delete(r.sessions, k)
			r.order = dropKey(r.order, k)
		}
		r.mu.Unlock()
	}
	return e.sess, e.err
}

// Graph returns the registry's cell cache (nil when disabled).
func (r *Registry) Graph() *graph.Cache { return r.cfg.Graph }

// RunCell resolves one campaign cell — Session+Run fused behind the
// graph cache. With no cache configured it builds the session and runs as
// always. With one, the cell's content key (program bytes, configuration,
// engine identity) is looked up first: a hit returns the cached
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
	ck, err := r.cellKey(k, spec, opts.Backend)
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

// cellKey is graph.KeyFor for the campaign cell (k, spec) on backend, from
// the program's memoized digest: a program is hashed once per registry,
// not once per request.
func (r *Registry) cellKey(k Key, spec Spec, backend comp.Backend) (graph.CellKey, error) {
	pe, err := r.programEntry(k.Workload, k.Scale)
	if err != nil {
		return graph.CellKey{}, err
	}
	return graph.KeyForDigest(pe.prog.Name, pe.digest(), k.Technique, k.Style, k.Policy, spec.Samples, spec.Seed,
		spec.SampleOffset, k.CkptInterval, backend, r.cfg.MaxSteps), nil
}

// Validate checks a key's campaign-independent fields — workload name,
// technique, style, policy — without building anything, so the batch API
// can reject a bad request with a status code before the stream (and any
// graph-cache consultation) starts.
func (r *Registry) Validate(k Key) error {
	if _, err := workloads.ByName(k.Workload); err != nil {
		return err
	}
	if _, err := core.ParsePolicy(k.Policy); err != nil {
		return err
	}
	if _, ok := staticKind(k.Technique); ok {
		return nil
	}
	style, err := core.ParseStyle(k.Style)
	if err != nil {
		return err
	}
	_, err = check.New(k.Technique, style)
	return err
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

// staticKind resolves a static-baseline technique name.
func staticKind(name string) (check.StaticKind, bool) {
	switch strings.ToUpper(name) {
	case "CFCSS":
		return check.StaticCFCSS, true
	case "ECCA":
		return check.StaticECCA, true
	}
	return 0, false
}

// build constructs the session for k: program, warm state (a stabilized
// translator snapshot, or for the static baselines the instrumented
// program's native warm state) and — for the checkpoint engine — the
// recorded reference log, unless the artifact tier restores all of it.
func (r *Registry) build(ctx context.Context, k Key) (*Session, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pe, err := r.programEntry(k.Workload, k.Scale)
	if err != nil {
		return nil, err
	}
	base := pe.prog
	pol, err := core.ParsePolicy(k.Policy)
	if err != nil {
		return nil, err
	}
	s := &Session{Key: k, pol: pol, prog: base, label: "none"}
	if kind, ok := staticKind(k.Technique); ok {
		s.static = true
		s.label = kind.String()
		if s.prog, err = check.InstrumentStatic(base, kind); err != nil {
			return nil, err
		}
	} else {
		style, err := core.ParseStyle(k.Style)
		if err != nil {
			return nil, err
		}
		if s.tech, err = check.New(k.Technique, style); err != nil {
			return nil, err
		}
		if s.tech != nil {
			s.label = s.tech.Name()
		}
	}
	afp := r.artifactFingerprint(s, pe)
	if r.restoreSession(s, afp, base) {
		return s, nil
	}
	wcfg := inject.Config{Technique: s.tech, Policy: pol, MaxSteps: r.cfg.MaxSteps}
	var clean *dbt.Result
	if s.static {
		s.native, clean, err = inject.WarmNative(s.prog, wcfg)
	} else {
		s.snap, clean, err = inject.Warm(base, wcfg)
	}
	if err != nil {
		return nil, err
	}
	s.cleanSteps = clean.Steps
	if k.CkptInterval != 0 {
		interval := ckpt.AutoInterval(k.CkptInterval, clean.Steps)
		if s.static {
			s.log, err = s.native.Record(interval, r.cfg.MaxSteps)
		} else {
			s.log, err = ckpt.Record(s.snap, interval, r.cfg.MaxSteps)
		}
		if err != nil {
			return nil, err
		}
		if s.log.Stop.Reason != cpu.StopHalt {
			return nil, fmt.Errorf("%s: clean run ended with %v", k.Workload, s.log.Stop)
		}
		inject.PublishRecording(r.cfg.Metrics, s.label)
	}
	r.count("session_warm_builds_total")
	r.publishArtifact(s, afp, pe)
	return s, nil
}

// artifactFingerprint derives the warm-artifact identity for the session
// under construction: the session key plus everything that shapes the
// warm state but is not in the key (program content, step budget, engine
// and technique versions). "" disables the tier for this build.
func (r *Registry) artifactFingerprint(s *Session, pe *progEntry) string {
	if r.cfg.Artifacts == nil {
		return ""
	}
	return artifact.Fingerprint(s.Key.String(), s.label, pe.digest(), r.cfg.MaxSteps)
}

// restoreSession hydrates s from a fetched warm artifact. It reports true
// only when every piece the session needs restored cleanly — any
// shortfall (no artifact, backend mismatch, missing log, inconsistent
// snapshot) reports false and the caller builds locally, so a bad
// artifact can never poison the registry. A restored session performs
// zero reference recordings and zero block translations; its campaigns
// are byte-identical to a locally built session's. A static session's
// native warm state is not shipped: one clean run rebuilds it from the
// code and must reproduce the artifact's clean-run length.
func (r *Registry) restoreSession(s *Session, afp string, base *isa.Program) bool {
	if afp == "" {
		return false
	}
	r.restoring.Add(1)
	defer r.restoring.Add(-1)
	a := r.cfg.Artifacts.Fetch(afp)
	if a == nil {
		return false
	}
	if a.Static != s.static || a.CleanSteps == 0 {
		return false
	}
	if s.Key.CkptInterval != 0 && (a.Log == nil || !a.Log.Complete()) {
		return false
	}
	if s.static {
		n, clean, err := inject.WarmNative(s.prog, inject.Config{MaxSteps: r.cfg.MaxSteps})
		if err != nil || clean.Steps != a.CleanSteps {
			return false
		}
		s.native = n
	} else {
		// Zero Backend mirrors the wcfg the local build would have used, so
		// the restored snapshot executes on the same engine tier.
		snap, err := dbt.RestoreSnapshot(base, dbt.Options{Technique: s.tech, Policy: s.pol}, a.Snapshot)
		if err != nil {
			return false
		}
		s.snap = snap
	}
	s.cleanSteps = a.CleanSteps
	if s.Key.CkptInterval != 0 {
		s.log = a.Log
	}
	r.count("session_restores_total")
	return true
}

// publishArtifact ships the locally built session to the artifact tier,
// best effort: an unexportable snapshot or a store failure degrades to
// not publishing, never to a build error.
func (r *Registry) publishArtifact(s *Session, afp string, pe *progEntry) {
	if afp == "" {
		return
	}
	a := &artifact.Artifact{
		Key:         s.Key.String(),
		ProgramHash: pe.digest(),
		MaxSteps:    r.cfg.MaxSteps,
		CleanSteps:  s.cleanSteps,
		Static:      s.static,
		Log:         s.log,
	}
	if s.snap != nil {
		st, err := s.snap.State()
		if err != nil {
			return
		}
		a.Snapshot = st
	}
	r.cfg.Artifacts.Publish(a, afp)
}

// Info describes one warm session for the sessions endpoint.
type Info struct {
	Workload     string  `json:"workload"`
	Scale        float64 `json:"scale"`
	Technique    string  `json:"technique"`
	Style        string  `json:"style,omitempty"`
	Policy       string  `json:"policy,omitempty"`
	CkptInterval int64   `json:"ckpt_interval"`
	Campaigns    int64   `json:"campaigns"`
	CleanSteps   uint64  `json:"clean_steps"`
	Points       int     `json:"ckpt_points,omitempty"`
	LogBytes     uint64  `json:"ckpt_bytes,omitempty"`
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
		in := Info{
			Workload:     s.Key.Workload,
			Scale:        s.Key.Scale,
			Technique:    s.Key.Technique,
			Style:        s.Key.Style,
			Policy:       s.Key.Policy,
			CkptInterval: s.Key.CkptInterval,
			Campaigns:    s.Campaigns(),
			CleanSteps:   s.cleanSteps,
		}
		if s.log != nil {
			in.Points = len(s.log.Points)
			in.LogBytes = s.log.Bytes
		}
		infos = append(infos, in)
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
