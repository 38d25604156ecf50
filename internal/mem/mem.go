// Package mem implements the simulated data memory with bounds protection.
// Word granularity matches the ISA: addresses index 32-bit words. Loads or
// stores outside the mapped region raise a protection fault, playing the
// role of the hardware memory-protection mechanisms the paper relies on to
// catch wild accesses.
//
// The memory additionally carries a dirty-page delta layer for the
// checkpoint engine: words are grouped into pages of PageWords, each page
// carries the generation tag of its last write, and CaptureDirty hands out
// exactly the pages written since the previous capture. Recording a
// checkpoint therefore copies only the delta, not the whole image, and
// Rollback restores only those pages, so one memory is reused across
// restores instead of being rebuilt for each.
package mem

import "fmt"

// PageShift and PageWords define the dirty-tracking granularity: 64 words
// (256 bytes) per page, small enough that loop-local working sets produce
// compact checkpoint deltas, large enough that the per-store tag write
// stays off the critical cache lines.
const (
	PageShift = 6
	PageWords = 1 << PageShift
)

// ProtectionFault describes an out-of-bounds access.
type ProtectionFault struct {
	Addr  uint32
	Write bool
	Size  uint32
}

func (f *ProtectionFault) Error() string {
	kind := "load"
	if f.Write {
		kind = "store"
	}
	return fmt.Sprintf("memory protection fault: %s at 0x%x (mapped: %d words)", kind, f.Addr, f.Size)
}

// Memory is a flat word-addressed data memory with per-page write
// generations.
type Memory struct {
	words   []int32
	pageGen []uint64 // last-write generation per page
	gen     uint64   // current write generation
}

// pageCount returns the number of tracking pages covering n words.
func pageCount(n int) int { return (n + PageWords - 1) >> PageShift }

// New returns a memory of n words, zero initialized.
func New(n uint32) *Memory {
	return &Memory{
		words:   make([]int32, n),
		pageGen: make([]uint64, pageCount(int(n))),
		gen:     1,
	}
}

// Size returns the number of mapped words.
func (m *Memory) Size() uint32 { return uint32(len(m.words)) }

// Load reads the word at addr.
func (m *Memory) Load(addr uint32) (int32, error) {
	if addr >= uint32(len(m.words)) {
		return 0, &ProtectionFault{Addr: addr, Size: m.Size()}
	}
	return m.words[addr], nil
}

// Store writes the word at addr.
func (m *Memory) Store(addr uint32, v int32) error {
	if addr >= uint32(len(m.words)) {
		return &ProtectionFault{Addr: addr, Write: true, Size: m.Size()}
	}
	m.words[addr] = v
	m.pageGen[addr>>PageShift] = m.gen
	return nil
}

// Reset zeroes all words, keeping the size. Every page is marked dirty so
// a pending CaptureDirty still sees the zeroing.
func (m *Memory) Reset() {
	clear(m.words)
	for i := range m.pageGen {
		m.pageGen[i] = m.gen
	}
}

// CaptureDirty invokes fn for every page written since the previous
// CaptureDirty (or since creation), in ascending page order, then advances
// the generation so the next capture sees only newer writes. The words
// slice aliases the live memory and is valid only during the call; the
// final page may be shorter than PageWords.
func (m *Memory) CaptureDirty(fn func(page uint32, words []int32)) {
	m.Dirty(func(page uint32, words []int32) bool {
		fn(page, words)
		return true
	})
	m.gen++
}

// Dirty is the read-only form of CaptureDirty: it invokes fn for every
// page written since the previous CaptureDirty or Rollback, in ascending
// page order, without advancing the generation. A false return from fn
// ends the walk early, and Dirty then returns false. The words slice
// aliases the live memory; fn must not write it.
func (m *Memory) Dirty(fn func(page uint32, words []int32) bool) bool {
	for p, g := range m.pageGen {
		if g == m.gen && !fn(uint32(p), m.Page(uint32(p))) {
			return false
		}
	}
	return true
}

// Page returns the words of tracking page p, aliasing the live memory
// (the final page may be shorter than PageWords). Callers must not write
// through it: the write would bypass dirty tracking.
func (m *Memory) Page(p uint32) []int32 {
	lo := int(p) << PageShift
	return m.words[lo:min(lo+PageWords, len(m.words))]
}

// Rollback undoes every write since the previous CaptureDirty or Rollback
// (or since creation): each page written in that window is copied back
// from base, a page table of the baseline image (base[p] holds the words
// of page p, as long as the page; nil is a zero page), and the generation
// advances so those pages count as clean again. Pages nobody wrote are not
// touched, which is what makes the checkpoint engine's per-sample restore
// cost proportional to the sample's footprint rather than to the memory
// size. It returns the number of pages restored.
func (m *Memory) Rollback(base [][]int32) (pages int) {
	m.CaptureDirty(func(page uint32, words []int32) {
		if b := base[page]; b != nil {
			copy(words, b)
		} else {
			clear(words)
		}
		pages++
	})
	return pages
}

// WriteClean copies words into memory starting at addr without marking
// any page dirty: the written words become part of the baseline that the
// next Rollback restores to, not a change it undoes.
func (m *Memory) WriteClean(addr uint32, words []int32) {
	copy(m.words[addr:], words)
}

// Resize makes m a memory of n words in place when its backing arrays
// hold that many, and reports whether they did. m must be all zero with
// no page dirty, as a memory rolled back onto a zero baseline is; a
// resized memory then behaves exactly as New(n) does.
func (m *Memory) Resize(n uint32) bool {
	pages := pageCount(int(n))
	if int(n) > cap(m.words) || pages > cap(m.pageGen) {
		return false
	}
	m.words, m.pageGen = m.words[:n], m.pageGen[:pages]
	return true
}

// Snapshot returns a copy of the memory contents (for tests and debugging).
func (m *Memory) Snapshot() []int32 {
	out := make([]int32, len(m.words))
	copy(out, m.words)
	return out
}
