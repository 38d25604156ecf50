// Package graph turns every campaign cell — one (workload, technique,
// style, policy, samples, seed, engine) configuration of the coverage
// matrix or a served batch — into a content-keyed build target, the way
// a ninja-style build system keys compilation outputs by the hash of
// their inputs. PRs 1–7 made each cell's classified report a pure
// function of those inputs (byte-identical across worker counts,
// engines and backends, pinned by the CI byte-identity gates); this
// package is the payoff: a matrix re-run only executes the cells whose
// inputs changed, everything else is a cache hit that skips the entire
// warm/record/inject pipeline.
//
// # Keys
//
// A CellKey captures everything that influences a cell's classified
// output:
//
//   - the program's content hash (fp.Program over name, entry point,
//     data size and the encoded instruction image), so regenerated
//     workloads invalidate their cells;
//   - the campaign configuration: technique, update style, checking
//     policy, sample count, seed, MaxSteps;
//   - the engine identity: checkpoint interval (replay vs checkpoint
//     engine) and the resolved execution backend.
//
// Workers, tracing, progress and the flight recorder are deliberately
// absent: they are proven output-invariant (the normalized report, the
// engine telemetry and the deterministic metric sections are
// bit-identical for every value), so one worker's run answers for all.
//
// Engine code itself cannot be content-hashed, so two version knobs
// stand in for it: EngineVersion (bump on any semantics-affecting engine
// change — every cell invalidates) and each technique's Version in
// check.Techniques (bump it when only that technique's checker or
// instrumentation changed — only its cells invalidate). Both fold into the embedded
// fingerprint but not the file name, so a bump overwrites entries in
// place instead of orphaning dead files.
//
// # Entries and the on-disk format
//
// A cache entry stores the normalized inject.Report (Workers and Elapsed
// zeroed — the stored payload is byte-identical no matter how many
// workers computed it), the FormatNormalized rendering, and the cell's
// deterministic observability snapshot (counters, gauges, histograms;
// spans stripped). On a hit the snapshot merges back into the live
// registry, so /metrics accounting stays continuous whether a cell ran
// or loaded.
//
// Entries persist under the cache directory (cfc-serve -graph-cache
// <dir>) in the checkpoint log's envelope style (see internal/ckpt): an
// 8-byte magic "CFCGRPH1", the length-framed
// fingerprint, the length-framed JSON payload, and a trailing CRC-32
// (fp.Checksum) over everything before it. Decoding distinguishes
// corruption (bad magic, checksum, framing, JSON — ErrCorrupt) from
// staleness (clean decode, different fingerprint — ErrStale); both fall
// back to recompute-and-rewrite. Writes go through a temp file + rename.
//
// # Memory budget
//
// Every cache keeps encoded entries in memory, in a least-recently-used
// list bounded by a byte budget (memBudget, 8 MiB, about 1,600 cells of
// 5 KiB). Store adds an entry at the hot end and evicts from the cold end
// until the layer fits; a memory hit moves its entry to the hot end; a
// disk hit is promoted into memory; an entry larger than the budget goes
// to disk only. Evictions count into graph_cache_evictions_total next to
// the hit, miss, stale and corrupt counters. The directory is not
// bounded: it is the persistence tier. A cell evicted from memory still
// hits from disk, and without a directory it is recomputed, byte for
// byte, on its next request.
package graph
