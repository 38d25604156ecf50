package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Series names are flat strings, optionally carrying Prometheus-style
// labels: `dbt_blocks_translated_total` or
// `inject_outcomes_total{technique="RCF",category="A"}`. The registry
// treats the full string as the series key; the Prometheus exporter
// splits base name and label set so histograms can splice in their `le`
// label.

// DefaultLatencyBuckets are the fixed histogram bounds used for detection
// latency in guest instructions: powers of two from 1 to 2^20, plus the
// implicit +Inf bucket. Bounds are inclusive upper limits (Prometheus
// `le` semantics).
var DefaultLatencyBuckets = func() []uint64 {
	b := make([]uint64, 21)
	for i := range b {
		b[i] = 1 << i
	}
	return b
}()

// BucketIndex returns the index of the bucket that observes v given
// ascending inclusive upper bounds: the first i with v <= bounds[i], or
// len(bounds) for the +Inf bucket.
func BucketIndex(bounds []uint64, v uint64) int {
	return sort.Search(len(bounds), func(i int) bool { return v <= bounds[i] })
}

// Counter is a monotonically increasing atomic counter. A nil Counter
// (from a nil Registry) ignores all operations.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by d.
func (c *Counter) Add(d uint64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. Shard merging keeps the
// maximum, so concurrent publication is order-independent.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Max raises the gauge to v if v is larger.
func (g *Gauge) Max(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram with atomic bucket counts.
type Histogram struct {
	bounds []uint64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.counts[BucketIndex(h.bounds, v)].Add(1)
	h.sum.Add(v)
}

// Registry is a thread-safe collection of named metrics. The zero value
// is not usable; construct with NewRegistry. A nil *Registry is a valid
// "disabled" registry: every lookup returns a nil metric whose
// operations are no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	spans    map[string]*spanAgg
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		spans:    map[string]*spanAgg{},
	}
}

// Counter returns (registering if needed) the named counter. Hot paths
// should look the counter up once and hold the pointer.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (registering if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (registering if needed) the named histogram with the
// given inclusive upper bounds. Re-registering an existing name must use
// identical bounds.
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{bounds: append([]uint64(nil), bounds...), counts: make([]atomic.Uint64, len(bounds)+1)}
		r.hists[name] = h
	} else if len(h.bounds) != len(bounds) {
		panic(fmt.Sprintf("obs: histogram %q re-registered with %d bounds (have %d)", name, len(bounds), len(h.bounds)))
	}
	return h
}

// Collector is an unsynchronized shard of metric deltas, owned by a
// single goroutine (one per campaign worker). A shard flushes into a
// registry by addition (counters, histogram buckets) and maximum
// (gauges), so flushing shards in any order — or splitting the same work
// across any number of shards — yields identical totals. A nil Collector
// ignores all operations.
type Collector struct {
	counters map[string]uint64
	gauges   map[string]int64
	hists    map[string]*histShard
}

type histShard struct {
	bounds []uint64
	counts []uint64
	sum    uint64
}

// NewCollector returns an empty shard.
func NewCollector() *Collector {
	return &Collector{
		counters: map[string]uint64{},
		gauges:   map[string]int64{},
		hists:    map[string]*histShard{},
	}
}

// Add increments a sharded counter.
func (c *Collector) Add(name string, d uint64) {
	if c != nil {
		c.counters[name] += d
	}
}

// Max raises a sharded gauge.
func (c *Collector) Max(name string, v int64) {
	if c == nil {
		return
	}
	if cur, ok := c.gauges[name]; !ok || v > cur {
		c.gauges[name] = v
	}
}

// Observe records a value into a sharded histogram, registering it with
// bounds on first use.
func (c *Collector) Observe(name string, bounds []uint64, v uint64) {
	if c == nil {
		return
	}
	h := c.hists[name]
	if h == nil {
		h = &histShard{bounds: append([]uint64(nil), bounds...), counts: make([]uint64, len(bounds)+1)}
		c.hists[name] = h
	}
	h.counts[BucketIndex(h.bounds, v)]++
	h.sum += v
}

// FlushTo adds the shard's contents into a registry (no-op when either
// side is nil). Flushes commute, so shards of one campaign flush in any
// order.
func (c *Collector) FlushTo(r *Registry) {
	if c == nil || r == nil {
		return
	}
	for n, v := range c.counters {
		r.Counter(n).Add(v)
	}
	for n, v := range c.gauges {
		r.Gauge(n).Max(v)
	}
	for n, h := range c.hists {
		rh := r.Histogram(n, h.bounds)
		for i, ct := range h.counts {
			rh.counts[i].Add(ct)
		}
		rh.sum.Add(h.sum)
	}
}
