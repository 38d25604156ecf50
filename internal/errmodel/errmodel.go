// Package errmodel implements the paper's Section 2 error model: a
// soft-error flips exactly one bit in the address offset of a branch
// instruction or in the flags that determine a conditional branch's
// direction. Every executed direct branch contributes one fault site per
// offset bit (32) and, when conditional, one per flag bit; each site has
// equal probability. Sites are classified into the branch-error categories
// of Figure 1:
//
//	A — mistaken branch (flag flip changes the direction)
//	B — jump to the beginning of the same basic block
//	C — jump to the middle of the same basic block
//	D — jump to the beginning of another basic block
//	E — jump to the middle of another basic block
//	F — jump to a non-code memory region (caught by hardware protection)
//
// plus NoError for flips with no control-flow effect (offset flips on
// not-taken branches, flag flips that do not change the direction).
// Indirect branches are excluded, as in the paper (they account for <5% of
// dynamic branch frequency and their targets are only known at run time).
package errmodel

import (
	"fmt"
	"slices"

	"repro/internal/cfg"
	"repro/internal/cpu"
	"repro/internal/isa"
)

// Category is a branch-error category.
type Category int

// Categories in paper order.
const (
	CatA Category = iota
	CatB
	CatC
	CatD
	CatE
	CatF
	CatNoError
	NumCategories
)

// CatData labels register-bit (data) faults in injection reports. The
// Section 2 error model never produces it: it exists for the data-flow
// checking experiments (the paper's future work).
const CatData = NumCategories

var catNames = [...]string{"A", "B", "C", "D", "E", "F", "No Error", "Data"}

// String names the category.
func (c Category) String() string {
	if int(c) < len(catNames) {
		return catNames[c]
	}
	return "?"
}

// SDCCategories lists the categories that can cause silent data corruption
// (A through E); F is detected by memory protection.
func SDCCategories() []Category { return []Category{CatA, CatB, CatC, CatD, CatE} }

// FaultSite axes.
const (
	kindAddr = 0
	kindFlag = 1
)

// Table accumulates fault-site counts, indexed by category, branch
// direction (taken=1) and fault kind (addr/flags) — the structure of the
// paper's Figure 2.
type Table struct {
	Counts [NumCategories][2][2]uint64
	Total  uint64
	// Branches is the number of direct-branch executions analyzed.
	Branches uint64
	// IndirectSkipped counts indirect branch executions excluded from the
	// model.
	IndirectSkipped uint64
}

// Add merges another table's counts (dynamic weighting).
func (t *Table) Add(o *Table) {
	for c := range t.Counts {
		for d := range t.Counts[c] {
			for k := range t.Counts[c][d] {
				t.Counts[c][d][k] += o.Counts[c][d][k]
			}
		}
	}
	t.Total += o.Total
	t.Branches += o.Branches
	t.IndirectSkipped += o.IndirectSkipped
}

// Prob returns the probability of (category, taken, kind) among all fault
// sites, as the paper's Figure 2 reports.
func (t *Table) Prob(c Category, taken bool, flagKind bool) float64 {
	if t.Total == 0 {
		return 0
	}
	d, k := 0, kindAddr
	if taken {
		d = 1
	}
	if flagKind {
		k = kindFlag
	}
	return float64(t.Counts[c][d][k]) / float64(t.Total)
}

// CategoryProb returns the total probability of a category.
func (t *Table) CategoryProb(c Category) float64 {
	if t.Total == 0 {
		return 0
	}
	var n uint64
	for d := 0; d < 2; d++ {
		for k := 0; k < 2; k++ {
			n += t.Counts[c][d][k]
		}
	}
	return float64(n) / float64(t.Total)
}

// Normalized returns the A..E probabilities renormalized over A..E only —
// the errors that may lead to silent data corruption (Figure 3).
func (t *Table) Normalized() map[Category]float64 {
	var sum float64
	for _, c := range SDCCategories() {
		sum += t.CategoryProb(c)
	}
	out := make(map[Category]float64, 5)
	for _, c := range SDCCategories() {
		if sum > 0 {
			out[c] = t.CategoryProb(c) / sum
		}
	}
	return out
}

// Blocks is a program's basic-block partition as the error model needs
// it: every block's start address, in ascending order, and the code
// length. An address below Len lies in the block of the greatest start
// at or below it; an address at or past Len is outside the code. At 4
// bytes a block it is all of the CFG that classification reads.
type Blocks struct {
	Starts []uint32
	Len    uint32
}

// BlocksOf returns g's block partition.
func BlocksOf(g *cfg.Graph) Blocks {
	starts := make([]uint32, len(g.Blocks))
	for i, b := range g.Blocks {
		starts[i] = b.Start
	}
	return Blocks{Starts: starts, Len: g.Prog.Len()}
}

// block returns the index of the block containing addr, or -1 when addr
// is outside the code.
func (b Blocks) block(addr uint32) int {
	if addr >= b.Len {
		return -1
	}
	i, found := slices.BinarySearch(b.Starts, addr)
	if !found {
		i--
	}
	return i
}

// Classify assigns a faulty branch target to a category, given the branch
// address. Targets outside the code region are F.
func (b Blocks) Classify(branchIP, target uint32) Category {
	return b.classify(b.block(branchIP), target)
}

// classify is Classify for a branch in block cur.
func (b Blocks) classify(cur int, target uint32) Category {
	tb := b.block(target)
	if tb < 0 {
		return CatF
	}
	return Landing(tb == cur, target == b.Starts[tb])
}

// Landing is the category of a faulty target inside the code: B or C in
// the faulted branch's own block, D or E in another, by whether it lands
// on the block's first instruction.
func Landing(sameBlock, atStart bool) Category {
	switch {
	case sameBlock && atStart:
		return CatB
	case sameBlock:
		return CatC
	case atStart:
		return CatD
	}
	return CatE
}

// Analyze runs the program natively, enumerating every fault site of every
// executed direct branch and classifying it. maxSteps bounds the run.
func Analyze(p *isa.Program, maxSteps uint64) (*Table, error) {
	b := BlocksOf(cfg.Build(p))
	t := &Table{}
	m := cpu.New()
	m.BranchHook = func(ev cpu.BranchEvent) {
		analyzeBranch(t, b, ev)
	}
	m.Reset(p)
	stop := m.Run(p.Code, maxSteps)
	if stop.Reason != cpu.StopHalt {
		return nil, fmt.Errorf("%s: error-model run ended with %v", p.Name, stop)
	}
	t.IndirectSkipped = m.IndirectBranches
	return t, nil
}

func analyzeBranch(t *Table, b Blocks, ev cpu.BranchEvent) {
	t.Branches++
	in := ev.Instr
	cond := in.Op.IsConditional()
	dir := 0
	if ev.Taken {
		dir = 1
	}

	// Address-offset bits.
	if !ev.Taken {
		// The offset is unused when the branch falls through: no error.
		t.Counts[CatNoError][dir][kindAddr] += isa.OffsetBits
		t.Total += isa.OffsetBits
	} else {
		cur := b.block(ev.IP)
		for bit := 0; bit < isa.OffsetBits; bit++ {
			imm := in.Imm ^ (int32(1) << bit)
			target := ev.IP + 1 + uint32(imm)
			cat := b.classify(cur, target)
			t.Counts[cat][dir][kindAddr]++
			t.Total++
		}
	}

	// Flag bits determine the direction of conditional branches only.
	if cond && in.Op == isa.OpJcc {
		cc := in.Cond()
		for bit := 0; bit < isa.NumFlagBits; bit++ {
			flipped := ev.Flags ^ (isa.Flags(1) << bit)
			if cc.Eval(flipped) != ev.Taken {
				t.Counts[CatA][dir][kindFlag]++
			} else {
				t.Counts[CatNoError][dir][kindFlag]++
			}
			t.Total++
		}
	}
}
