package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestBucketIndexBoundaries pins the inclusive-upper-bound (`le`)
// semantics: a value equal to a bound lands in that bound's bucket, one
// past it in the next, and anything above the last bound in +Inf.
func TestBucketIndexBoundaries(t *testing.T) {
	bounds := []uint64{1, 8, 64}
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0}, {1, 0}, // le="1"
		{2, 1}, {7, 1}, {8, 1}, // le="8"
		{9, 2}, {64, 2}, // le="64"
		{65, 3}, {1 << 40, 3}, // +Inf
	}
	for _, c := range cases {
		if got := BucketIndex(bounds, c.v); got != c.want {
			t.Errorf("BucketIndex(%v, %d) = %d, want %d", bounds, c.v, got, c.want)
		}
	}
}

func TestDefaultLatencyBuckets(t *testing.T) {
	if len(DefaultLatencyBuckets) != 21 {
		t.Fatalf("len = %d, want 21", len(DefaultLatencyBuckets))
	}
	if DefaultLatencyBuckets[0] != 1 || DefaultLatencyBuckets[20] != 1<<20 {
		t.Fatalf("bounds = [%d ... %d], want [1 ... 2^20]",
			DefaultLatencyBuckets[0], DefaultLatencyBuckets[20])
	}
	// Power-of-two latencies must land exactly on their own bound, not in
	// the next bucket — this is what makes the histogram readable as
	// "detected within N instructions".
	if got := BucketIndex(DefaultLatencyBuckets, 1024); got != 10 {
		t.Errorf("BucketIndex(1024) = %d, want 10", got)
	}
}

func TestRegistryAndSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Add(2)
	r.Counter("a_total").Inc()
	r.Gauge("g").Set(5)
	r.Gauge("g").Max(3) // lower: no effect
	r.Gauge("g").Max(9)
	h := r.Histogram("lat", []uint64{1, 8, 64})
	for _, v := range []uint64{1, 2, 8, 9, 100} {
		h.Observe(v)
	}

	s := r.Snapshot()
	if s.Counters["a_total"] != 3 {
		t.Errorf("counter = %d, want 3", s.Counters["a_total"])
	}
	if s.Gauges["g"] != 9 {
		t.Errorf("gauge = %d, want 9", s.Gauges["g"])
	}
	hs := s.Histograms["lat"]
	// 1 -> le"1"; 2 and 8 -> le"8"; 9 -> le"64"; 100 -> +Inf.
	if want := []uint64{1, 2, 1, 1}; !reflect.DeepEqual(hs.Counts, want) {
		t.Errorf("hist counts = %v, want %v", hs.Counts, want)
	}
	if hs.Sum != 120 || hs.Count != 5 {
		t.Errorf("hist sum/count = %d/%d, want 120/5", hs.Sum, hs.Count)
	}
}

func TestHistogramReboundPanics(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h", []uint64{1, 2})
	defer func() {
		if recover() == nil {
			t.Error("re-registering with different bound count did not panic")
		}
	}()
	r.Histogram("h", []uint64{1, 2, 3})
}

// TestCollectorMergeOrderInvariance: splitting the same observations
// across shards, in any grouping, and flushing the shards into a registry
// in any order must give an identical snapshot — the property that makes
// campaign metrics deterministic across worker counts, since each
// campaign worker flushes its own shard when the pool ends.
func TestCollectorMergeOrderInvariance(t *testing.T) {
	bounds := []uint64{4, 16}
	observe := func(c *Collector, vs ...uint64) {
		for _, v := range vs {
			c.Add("n_total", 1)
			c.Max("peak", int64(v))
			c.Observe("lat", bounds, v)
		}
	}
	snapshot := func(shards ...*Collector) string {
		r := NewRegistry()
		for _, s := range shards {
			s.FlushTo(r)
		}
		var buf bytes.Buffer
		if err := r.Snapshot().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	// One shard sees everything.
	all := NewCollector()
	observe(all, 1, 3, 5, 16, 17, 200)
	want := snapshot(all)

	// Three shards split it; every flush order must agree.
	s1, s2, s3 := NewCollector(), NewCollector(), NewCollector()
	observe(s1, 1, 200)
	observe(s2, 3, 5)
	observe(s3, 16, 17)
	for _, order := range [][]*Collector{{s1, s2, s3}, {s1, s3, s2}, {s2, s1, s3}, {s2, s3, s1}, {s3, s1, s2}, {s3, s2, s1}} {
		if got := snapshot(order...); got != want {
			t.Errorf("sharded flush differs from single-shard flush:\n%s\nvs\n%s", got, want)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(`runs_total{technique="RCF"}`).Add(7)
	r.Gauge("cache_instrs").Set(42)
	h := r.Histogram(`lat{technique="RCF"}`, []uint64{1, 8})
	h.Observe(1)
	h.Observe(5)
	h.Observe(99)

	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`runs_total{technique="RCF"} 7`,
		`cache_instrs 42`,
		`lat_bucket{technique="RCF",le="1"} 1`,
		`lat_bucket{technique="RCF",le="8"} 2`,
		`lat_bucket{technique="RCF",le="+Inf"} 3`,
		`lat_sum{technique="RCF"} 105`,
		`lat_count{technique="RCF"} 3`,
	}, "\n") + "\n"
	if buf.String() != want {
		t.Errorf("prometheus output:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestNilSafety: the disabled path — nil registry, nil collector, and the
// nil metrics they hand out — must accept every operation.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("c").Add(1)
	r.Counter("c").Inc()
	r.Gauge("g").Set(1)
	r.Gauge("g").Max(1)
	r.Histogram("h", []uint64{1}).Observe(1)
	if v := r.Counter("c").Value(); v != 0 {
		t.Errorf("nil counter value = %d", v)
	}
	if v := r.Gauge("g").Value(); v != 0 {
		t.Errorf("nil gauge value = %d", v)
	}
	if s := r.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", s)
	}

	var c *Collector
	c.Add("c", 1)
	c.Max("g", 1)
	c.Observe("h", []uint64{1}, 1)
	c.FlushTo(NewRegistry())
	NewCollector().FlushTo(nil)
}
