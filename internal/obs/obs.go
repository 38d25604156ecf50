// Package obs is the observability layer shared by the translator, the
// fault injector and the benchmark harness: a low-overhead metrics
// registry (atomic counters, gauges and fixed-bucket histograms, with
// per-worker collector shards that flush into it deterministically), exporters
// in JSON and Prometheus text format, and the per-sample flight recorder
// that dumps the last events of each anomalous sample.
//
// Design rules:
//
//   - Disabled must be almost free. A nil *Registry or nil
//     *FlightRecorder is a valid receiver: every method short-circuits,
//     so instrumented hot paths pay one branch when observability is off.
//   - Enabled must stay deterministic. Counters and histogram buckets
//     fold by addition and gauges by maximum — all commutative and
//     associative — so shards flushed in any order produce identical
//     snapshots, and parallel campaigns export bit-identical metrics for
//     every worker count.
//   - Exports must be diffable. Snapshots serialize with sorted series
//     names; two equal snapshots produce byte-identical files.
package obs
