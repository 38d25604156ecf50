package ckpt

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cpu"
	"repro/internal/dbt"
	"repro/internal/isa"
)

// Site is the clean reference run's state at one dynamic direct branch,
// read from the log's site table (SiteReader.Site): what a branch fault
// needs to fire there without a restore (cpu.Fault.FireBranch), and what
// a run that stops right after that branch reports.
type Site struct {
	// IP is the branch's code address and Instr the instruction there,
	// which the table does not hold: the reader takes it from the code.
	IP    uint32
	Instr isa.Instr
	// Flags are the flags the branch evaluated and Taken its direction.
	Flags isa.Flags
	Taken bool
	// Steps is the machine step count with the branch's own step, which
	// a fault firing there reads as cpu.Fault.FiredStep.
	Steps uint64
	// SigChecks counts the signature checks (jrz) executed through the
	// branch, itself included.
	SigChecks uint64
	// Prefix is the translator work from the run's start through the
	// branch. The table carries the two counters that move sparsely,
	// Dispatches and IndirectLookups; the other fields are the restore
	// point's, so they are exact while the run translates nothing.
	Prefix dbt.Stats
}

// Site-table entry head bits; the low bits hold the evaluated flags.
const (
	siteTaken  = 1 << isa.NumFlagBits       // the branch was taken
	siteIPOff  = 1 << (isa.NumFlagBits + 1) // the IP is off the fall-through prediction
	siteCounts = 1 << (isa.NumFlagBits + 2) // translator counters moved
)

// siteCursor is where a site-table entry is decoded from: the IP
// straight-line execution continues at (a point's IP, or the previous
// branch's fall-through), the step count and the two translator
// counters there. Every point resets it to the point's state. After a
// read it also holds the entry's head byte.
type siteCursor struct {
	ip                  uint32
	steps               uint64
	dispatches, lookups uint64
	head                byte
}

// cursorAt returns the cursor of point pt.
func cursorAt(pt *Point) siteCursor {
	return siteCursor{ip: pt.State.IP, steps: pt.State.Steps, dispatches: pt.Prefix.Dispatches, lookups: pt.Prefix.IndirectLookups}
}

// siteWriter builds a site table during a recording.
type siteWriter struct {
	buf []byte
	cur siteCursor
}

// add appends the entry of one executed branch: its event, the machine
// step count and the translator work so far. An entry is a head byte
// (flags, taken, IP-off and counters-moved bits), the uvarint steps since
// the cursor, then, when flagged, the zigzag varint IP error and the
// uvarint counter deltas.
func (w *siteWriter) add(ev *cpu.BranchEvent, steps uint64, st dbt.Stats) {
	c := &w.cur
	delta := steps - c.steps
	head := byte(ev.Flags)
	if ev.Taken {
		head |= siteTaken
	}
	off := int32(ev.IP - (c.ip + uint32(delta) - 1))
	if off != 0 {
		head |= siteIPOff
	}
	moved := st.Dispatches != c.dispatches || st.IndirectLookups != c.lookups
	if moved {
		head |= siteCounts
	}
	w.buf = append(w.buf, head)
	w.buf = binary.AppendUvarint(w.buf, delta)
	if off != 0 {
		w.buf = binary.AppendVarint(w.buf, int64(off))
	}
	if moved {
		w.buf = binary.AppendUvarint(w.buf, st.Dispatches-c.dispatches)
		w.buf = binary.AppendUvarint(w.buf, st.IndirectLookups-c.lookups)
	}
	*c = siteCursor{ip: ev.IP + 1, steps: steps, dispatches: st.Dispatches, lookups: st.IndirectLookups}
}

// read decodes the entry at sites[pos:], moving the cursor to it, and
// returns the position after it. It returns -1 for an entry cut short,
// with a zero step delta (a branch is a step) or with an IP outside
// [1, codeLen).
func (c *siteCursor) read(sites []byte, pos int, codeLen uint32) int {
	if pos >= len(sites) {
		return -1
	}
	head := sites[pos]
	delta, pos := uvarint(sites, pos+1)
	if pos < 0 || delta == 0 {
		return -1
	}
	ip := c.ip + uint32(delta) - 1
	if head&siteIPOff != 0 {
		var off uint64
		if off, pos = uvarint(sites, pos); pos < 0 {
			return -1
		}
		ip += uint32(off>>1) ^ -uint32(off&1) // zigzag
	}
	if head&siteCounts != 0 {
		var d, l uint64
		if d, pos = uvarint(sites, pos); pos < 0 {
			return -1
		}
		if l, pos = uvarint(sites, pos); pos < 0 {
			return -1
		}
		c.dispatches += d
		c.lookups += l
	}
	if ip == 0 || ip >= codeLen {
		return -1
	}
	c.ip, c.steps, c.head = ip+1, c.steps+delta, head
	return pos
}

// uvarint reads the uvarint at buf[pos:] and returns it with the
// position after it, or -1 for bytes that end first or run past 64 bits.
// It is small enough to inline into the table walk.
func uvarint(buf []byte, pos int) (uint64, int) {
	var v uint64
	for shift := uint(0); pos < len(buf) && shift < 64; shift += 7 {
		b := buf[pos]
		pos++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, pos
		}
	}
	return 0, -1
}

// SiteReader reads the sites of one log. It resumes its walk from the
// last site it read when the next is at or after it and decodes from the
// same point, so a reader fed ascending branches decodes each entry
// about once. A SiteReader is not safe for concurrent use.
type SiteReader struct {
	l    *Log
	code []isa.Instr
	k    int    // point the walk decodes from; -1 before the first read
	end  uint64 // the next point's first branch: the walk's span ends there
	next uint64 // branch of the next entry
	pos  int    // its offset in l.Sites
	c    siteCursor
	sig  uint64 // signature checks through branch next-1
}

// SiteReader returns a reader of the log's sites. code is the code the
// run executed (the snapshot's cache, or the program), from which the
// reader takes each entry's instruction to count signature checks.
func (l *Log) SiteReader(code []isa.Instr) *SiteReader {
	return &SiteReader{l: l, code: code, k: -1}
}

// Site returns the reference run's state at dynamic direct branch b
// (0-based), decoding the table forward from the last point before it or
// from the reader's last site. It reports false when the run has no
// branch b.
func (r *SiteReader) Site(b uint64) (Site, bool) {
	l := r.l
	if b >= l.Final.DirectBranches {
		return Site{}, false
	}
	if r.k < 0 || b+1 < r.next || b >= r.end {
		k := l.PointAtBranch(b)
		pt := &l.Points[k]
		r.k, r.next, r.pos, r.c, r.sig = k, pt.State.DirectBranches, int(pt.SiteOffset), cursorAt(pt), pt.State.SigChecks
		r.end = l.Final.DirectBranches
		if k+1 < len(l.Points) {
			r.end = l.Points[k+1].State.DirectBranches
		}
	}
	c, pos, sig, code := r.c, r.pos, r.sig, r.code
	for i := r.next; i <= b; i++ {
		if pos = c.read(l.Sites, pos, l.CodeLen); pos < 0 {
			r.k = -1
			return Site{}, false
		}
		if code[c.ip-1].Op == isa.OpJrz {
			sig++
		}
	}
	if b >= r.next {
		r.c, r.pos, r.sig, r.next = c, pos, sig, b+1
	}
	s := Site{
		IP:        r.c.ip - 1,
		Instr:     r.code[r.c.ip-1],
		Flags:     isa.Flags(r.c.head) & isa.FlagMask,
		Taken:     r.c.head&siteTaken != 0,
		Steps:     r.c.steps,
		SigChecks: r.sig,
		Prefix:    l.Points[r.k].Prefix,
	}
	s.Prefix.Dispatches, s.Prefix.IndirectLookups = r.c.dispatches, r.c.lookups
	return s, true
}

// checkSites walks the whole site table, rejecting one a reader could
// not decode: no point before the first branch, an entry count other
// than Final.DirectBranches, a malformed entry (see siteCursor.read), or
// a point whose branch counter falls back or whose offset is not where
// its first branch's entry starts.
func (l *Log) checkSites() error {
	if len(l.Points) == 0 || l.Points[0].State.DirectBranches != 0 {
		return fmt.Errorf("%w: no point at the run's first branch", ErrCorrupt)
	}
	var c siteCursor
	pos, k := 0, 0
	for i := uint64(0); ; i++ {
		for ; k < len(l.Points) && l.Points[k].State.DirectBranches <= i; k++ {
			pt := &l.Points[k]
			if pt.State.DirectBranches != i || int(pt.SiteOffset) != pos {
				return fmt.Errorf("%w: point %d (branch %d) starts at site offset %d, not at branch %d's entry (offset %d)",
					ErrCorrupt, k, pt.State.DirectBranches, pt.SiteOffset, i, pos)
			}
			c = cursorAt(pt)
		}
		if i == l.Final.DirectBranches {
			break
		}
		if pos = c.read(l.Sites, pos, l.CodeLen); pos < 0 {
			return fmt.Errorf("%w: site table entry %d of %d is malformed or missing",
				ErrCorrupt, i, l.Final.DirectBranches)
		}
	}
	if k < len(l.Points) || pos != len(l.Sites) {
		return fmt.Errorf("%w: site table holds more than %d entries, or a point lies past the last branch",
			ErrCorrupt, l.Final.DirectBranches)
	}
	return nil
}
