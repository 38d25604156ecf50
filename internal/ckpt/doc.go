// Package ckpt implements checkpoint-and-resume acceleration for fault
// injection campaigns. One instrumented clean reference run records
// periodic machine checkpoints — architectural state, counters, output
// length and a dirty-page memory delta — and every subsequent faulty run
// restores the nearest checkpoint at or before its fault site instead of
// re-executing the shared prefix. A campaign of N samples over a clean run
// of S steps drops from O(N·S) to O(N·interval + S) while reproducing the
// full-replay results bit for bit: a restored machine is exactly the
// machine that executed the whole prefix.
//
// Checkpoints under the DBT are only valid while the reference run leaves
// the shared translator state untouched. On a fully warmed snapshot the
// only translator activity a clean run performs is indirect-branch lookup
// servicing (a counter, no cache mutation); any structural activity —
// dispatches, translations, trace formation, invalidation — means the
// reference run's cache diverged from the pristine clones faulty samples
// start from, so recording stops capturing points at that instant and the
// points captured earlier remain valid (graceful degradation down to
// "checkpoint 0 only", which is plain replay).
//
// Captures land on watchable points too. Besides every interval
// boundary, the recorder captures the first point at or after it that is
// a block entry or a guard continuation of the samples' compiled engine
// (when the boundary is not one itself); a guard is a signature check's
// "jump if zero over a report", which runs inside a compiled block
// (comp.Guard). The boundary points keep each restore as close to its
// fault site as plain interval spacing would. The watchable points are
// where the engine's watch can see a faulty sample that rejoined the
// reference run, and Replayer.Rejoins confirms such a rejoin exactly.
//
// The same run records a site table: the run's state at every dynamic
// direct branch (Site: IP, evaluated flags, direction, step count,
// signature checks, translator counters). A fault on a branch fires from
// its entry without a restore (Log.SiteReader, cpu.Fault.FireBranch),
// and the injection engine settles there the samples whose outcome the
// firing decides. Each entry is a few bytes relative to the one before
// it, or to the point it follows, so a reader decodes forward from the
// last point before its branch, or from the last site it read. The
// recorder writes entries from a branch hook, which runs the recording
// on the step interpreter.
//
// A Replayer restores samples in place on one machine and one memory.
// The memory's baseline at the current point is a page table of
// references into the log's immutable page deltas (nil is a zero page),
// not a second image: a restore rolls back the pages the previous sample
// wrote from the table, a forward seek writes each delta it crosses once,
// and a backward seek zeroes only the referenced pages. Released
// replayers go to one process-wide free list shared by every log and
// goroutine, bounded by a constant, and NewReplayer reuses one, resized
// in place when its arrays hold the new log's memory, so a warm
// session's campaigns allocate no memory image.
//
// # Encoded checkpoint-log format
//
// A recorded Log persists only as the log section of a warm artifact
// (see internal/artifact): Log.Encode seals it and DecodeLogBytes reads
// it back, so a fresh process restoring the artifact skips the
// reference-run recording entirely. The section is a frame.Seal envelope,
// all integers little-endian:
//
//	offset  field
//	0       magic: the 8 ASCII bytes "CFCKLOG3" (the trailing digit is
//	        the format version; incompatible layout changes bump it, and
//	        decoders reject any other magic — older logs decode corrupt)
//	8       fingerprint section: u32 length + bytes — an opaque
//	        caller-supplied identity string (the artifact writes its
//	        fingerprint here, which names the session key, the program
//	        hash and the engine and technique versions); DecodeLogBytes
//	        rejects the log as stale when it does not match
//	...     body section: u32 length + the payload below
//	end-4   checksum: IEEE CRC-32 of every preceding byte (magic
//	        included); a mismatch marks the log corrupt
//
// The body payload is a fixed field sequence with no padding:
//
//	interval     u64   capture spacing in machine steps
//	memWords     u32   machine memory size in words
//	truncated    u8    1 when recording stopped early (structural
//	                   translator activity), else 0
//	stop         how the reference run ended: reason u32, ip u32,
//	             detail u32 length + bytes
//	cacheSize    i64   code cache size at the end of the run
//	codeLen      u32   length of the code the run executed, at its end
//	bytes        u64   in-memory footprint estimate of the points and
//	                   the site table
//	final        machine state (layout below)
//	finalPrefix  translator stats (layout below)
//	output       u32 word count + that many i32 output words
//	sites        u32 byte count + the site table (layout below)
//	points       u32 point count, then per point:
//	               state    machine state
//	               outLen   u32 reference-output prefix length
//	               siteOff  u32 offset into sites of the entry of the
//	                        point's first branch
//	               prefix   translator stats
//	               pages    u32 page count, then per page:
//	                          index u32, wordCount u32, words i32 each
//
// A machine state is the architectural and counter snapshot, in order:
// isa.NumRegs general registers (i32 each), flags (u8), IP (u32), then
// the five u64 counters cycles, steps, direct branches, indirect
// branches, signature checks. Translator stats are seven i64 fields in
// struct order: blocks translated, guest instructions translated, traces
// formed, dispatches, indirect lookups, invalidations, check sites.
//
// The site table holds one entry per dynamic direct branch, in execution
// order. An entry is decoded against a cursor: the IP straight-line
// execution continues at, the step count and the dispatch and
// indirect-lookup counters. Each point resets the cursor to its own IP,
// steps and prefix; each entry moves it to the branch's fall-through,
// steps and counters. An entry is:
//
//	head      u8       bits 0-4 the flags the branch evaluated, bit 5 the
//	                   branch was taken, bit 6 the IP is off the
//	                   prediction, bit 7 the counters moved
//	steps     uvarint  steps since the cursor (at least 1)
//	ipOff     varint   when bit 6: the IP minus the prediction, which is
//	                   the cursor's IP plus steps minus 1
//	counters  when bit 7: uvarint dispatch and uvarint indirect-lookup
//	          deltas
//
// The instruction at an entry's IP is the executed code's (the
// snapshot's cache, or the program); a reader counts signature checks
// from it.
//
// Decoding validates the magic, the checksum, the fingerprint and every
// length field against the remaining input before allocating (a count
// never exceeds the remaining bytes over its element's smallest
// encoding). It accepts only 0 and 1 in the truncated byte, so any log
// that decodes re-encodes to the same bytes, and rejects points a
// replayer could not apply (an output prefix past the output, a page
// outside memory or not a whole page: PageWords words, or the rest of
// memory for the final page) and a site table a reader could not decode
// (no point at branch 0, an entry count other than the final
// direct-branch count, an entry cut short or with a zero step count, an
// IP outside [1, codeLen), or a point whose offset is not its first
// branch's entry). It classifies failures as ErrCorrupt
// (unreadable bytes) or ErrStale (readable bytes recorded for a
// different configuration). Callers treat both the same way: the artifact is
// rejected and the session re-records its log locally.
package ckpt
