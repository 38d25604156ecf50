package graph

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/comp"
	"repro/internal/fp"
	"repro/internal/inject"
	"repro/internal/isa"
	"repro/internal/obs"
)

// EngineVersion invalidates every cached cell at once. Bump it whenever a
// semantics-affecting engine change lands: anything that can alter a
// classified report for the same (program, configuration) inputs —
// translator or checker semantics, fault derivation, outcome
// classification, report formatting. Version 2: address 0 is the null
// page on every target. Version 3: a flag-bit fault acts on the one branch
// that evaluates it.
const EngineVersion = 3

// TechniqueVersions invalidates one technique's cells: bump a technique's
// entry when only its checker or instrumentation changed, and the other
// techniques' cached cells stay valid. Techniques not listed here fold in
// as version 0.
var TechniqueVersions = map[string]int{
	"none":  1,
	"ECF":   1,
	"EdgCF": 1,
	"RCF":   1,
	"CFCSS": 1,
	"ECCA":  1,
}

// CellKey identifies one campaign cell by everything that influences its
// classified output. Workers, tracing, progress and flight recording are
// deliberately absent: reports are proven byte-identical across them.
type CellKey struct {
	// Program is the workload's readable name; ProgramHash is its content
	// hash (fp.Program), the field that actually keys the cell.
	Program     string
	ProgramHash string

	Technique string
	Style     string
	Policy    string
	Samples   int
	Seed      int64
	// SampleOffset distinguishes a shard's cell from the unsharded
	// campaign's: [offset, offset+samples) classifies differently from
	// [0, samples) even under the same seed.
	SampleOffset int

	// Engine identity: the checkpoint interval selects replay vs
	// checkpoint engine (and the capture spacing), Backend is the resolved
	// execution backend, MaxSteps the hang budget.
	CkptInterval int64
	Backend      string
	MaxSteps     uint64
}

// KeyFor builds the cell key for a campaign over p. maxSteps is
// normalized (0 to inject.DefaultMaxSteps) so spellings that run
// identically share a cell.
func KeyFor(p *isa.Program, technique, style, policy string, samples int, seed int64,
	sampleOffset int, ckptInterval int64, backend comp.Backend, maxSteps uint64) CellKey {
	return KeyForDigest(p.Name, fp.Program(p), technique, style, policy, samples, seed,
		sampleOffset, ckptInterval, backend, maxSteps)
}

// KeyForDigest is KeyFor over a program already hashed: name is the
// program's name and digest its fp.Program hash, so a caller that keeps
// programs long-lived hashes each one once.
func KeyForDigest(name, digest, technique, style, policy string, samples int, seed int64,
	sampleOffset int, ckptInterval int64, backend comp.Backend, maxSteps uint64) CellKey {
	if maxSteps == 0 {
		maxSteps = inject.DefaultMaxSteps
	}
	if sampleOffset < 0 {
		sampleOffset = 0
	}
	return CellKey{
		Program:      name,
		ProgramHash:  digest,
		Technique:    technique,
		Style:        style,
		Policy:       policy,
		Samples:      samples,
		Seed:         seed,
		SampleOffset: sampleOffset,
		CkptInterval: ckptInterval,
		Backend:      backend.String(),
		MaxSteps:     maxSteps,
	}
}

// id renders the version-free key identity: every field including the
// program hash, but no version knobs.
func (k CellKey) id() string {
	return fmt.Sprintf("%s|%s|%s|%s|%s|s%d|n%d|o%d|i%d|%s|m%d",
		k.Program, k.ProgramHash, k.Technique, k.Style, k.Policy,
		k.Seed, k.Samples, k.SampleOffset, k.CkptInterval, k.Backend, k.MaxSteps)
}

// Fingerprint renders the full cell fingerprint embedded in cache
// entries: the engine and technique versions plus the key identity.
func (k CellKey) Fingerprint() string {
	return k.fingerprintAt(EngineVersion, TechniqueVersions[k.Technique])
}

// fingerprintAt is Fingerprint under explicit versions, split out so the
// invalidation tests can write entries "from the past".
func (k CellKey) fingerprintAt(engine, technique int) string {
	return fmt.Sprintf("cell|v%d|t%d|%s", engine, technique, k.id())
}

// fileName maps the key to its cache file name. The readable fields plus
// their checksum — not the program hash or the versions — so a program
// edit or version bump finds the old file, decodes it as stale and
// overwrites in place instead of orphaning it.
func (k CellKey) fileName() string {
	readable := fmt.Sprintf("%s|%s|%s|%s|s%d|n%d|o%d|i%d|%s|m%d",
		k.Program, k.Technique, k.Style, k.Policy,
		k.Seed, k.Samples, k.SampleOffset, k.CkptInterval, k.Backend, k.MaxSteps)
	return fp.FileName(readable, ".cell")
}

// Entry is one cached cell: the normalized report, its rendering, and
// the cell's deterministic metrics.
type Entry struct {
	// Report is the campaign report with Workers and Elapsed zeroed, so
	// the stored payload is byte-identical no matter how many workers
	// computed it.
	Report *inject.Report `json:"report"`
	// Normalized is the inject.FormatNormalized rendering of Report,
	// stored so the artifact is self-describing (and greppable) on disk.
	Normalized string `json:"normalized"`
	// Metrics is the cell's deterministic observability snapshot
	// (counters, gauges, histograms; wall-clock spans stripped), merged
	// into the live registry on every hit.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// Cache is a content-keyed store of campaign cells: an in-memory layer
// always, plus a directory when configured. The zero value is not usable;
// a nil *Cache is valid and disables caching (Run always computes).
type Cache struct {
	dir string // "" = memory-only

	mu  sync.Mutex
	mem map[string][]byte // encoded entries by file name
}

// New returns a cache persisting under dir ("" keeps entries in memory
// only — hits survive the process, not a restart).
func New(dir string) *Cache {
	return &Cache{dir: dir, mem: map[string][]byte{}}
}

// Dir returns the persistence directory ("" when memory-only).
func (c *Cache) Dir() string {
	if c == nil {
		return ""
	}
	return c.dir
}

// count bumps a cache accounting counter.
func count(m *obs.Registry, name string) {
	if m != nil {
		m.Counter(name).Add(1)
	}
}

// Lookup returns the cached entry for k, or nil. A corrupt or stale
// entry counts into metrics and misses; the caller recomputes and Store
// overwrites it.
func (c *Cache) Lookup(k CellKey, metrics *obs.Registry) *Entry {
	if c == nil {
		return nil
	}
	name := k.fileName()
	want := k.Fingerprint()
	c.mu.Lock()
	raw, ok := c.mem[name]
	c.mu.Unlock()
	if !ok && c.dir != "" {
		b, err := os.ReadFile(filepath.Join(c.dir, name))
		if err != nil {
			return nil
		}
		raw, ok = b, true
	}
	if !ok {
		return nil
	}
	e, err := decodeEntry(raw, want)
	if err != nil {
		if errors.Is(err, errStaleEntry) {
			count(metrics, "graph_cache_stale_total")
		} else {
			count(metrics, "graph_cache_corrupt_total")
		}
		return nil
	}
	return e
}

// Store encodes and saves the entry under k, in memory and — when a
// directory is configured — on disk via temp file + rename, best effort:
// a read-only or full disk degrades to memory-only, never to an error.
func (c *Cache) Store(k CellKey, e *Entry) {
	if c == nil {
		return
	}
	raw := encodeEntry(e, k.Fingerprint())
	name := k.fileName()
	c.mu.Lock()
	c.mem[name] = raw
	c.mu.Unlock()
	if c.dir == "" {
		return
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return
	}
	tmp, err := os.CreateTemp(c.dir, ".cell-*")
	if err != nil {
		return
	}
	_, err = tmp.Write(raw)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(c.dir, name))
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
}

// Run resolves one cell: a hit returns the cached normalized report
// (cached=true) after merging its deterministic metrics into metrics; a
// miss calls compute against a fresh private registry, merges and stores
// what it collected, and returns the live report. The lookup itself is
// timed into a graph_cell_lookup span either way.
//
// A nil cache always computes, against metrics directly (no private
// registry, no store) — the uncached paths are exactly as before.
func (c *Cache) Run(k CellKey, metrics *obs.Registry,
	compute func(*obs.Registry) (*inject.Report, error)) (*inject.Report, bool, error) {
	if c == nil {
		return nil, false, fmt.Errorf("graph: Run on a nil cache")
	}
	start := time.Now()
	e := c.Lookup(k, metrics)
	if metrics != nil {
		metrics.RecordSpan(fmt.Sprintf("graph_cell_lookup{technique=%q}", k.Technique), time.Since(start))
	}
	if e != nil {
		count(metrics, "graph_cache_hits_total")
		metrics.Merge(e.Metrics)
		return e.Report, true, nil
	}
	count(metrics, "graph_cache_misses_total")
	count(metrics, "graph_cells_executed_total")
	priv := obs.NewRegistry()
	rep, err := compute(priv)
	if err != nil {
		// Failed computes still surface what they collected; nothing is
		// cached.
		metrics.Merge(priv.Snapshot())
		return nil, false, err
	}
	full := priv.Snapshot()
	metrics.Merge(full)
	stored := *rep
	stored.Workers = 0
	stored.Elapsed = 0
	c.Store(k, &Entry{
		Report:     &stored,
		Normalized: inject.FormatNormalized(rep),
		Metrics:    full.StripTimings(),
	})
	return rep, false, nil
}
