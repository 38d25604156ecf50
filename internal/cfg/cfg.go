// Package cfg recovers the control-flow graph of a guest program: basic
// block boundaries, successor edges, and back-edge identification. The
// error model uses it to classify faulty branch targets into the paper's
// categories (beginning/middle of same/other block), and the RET-BE
// checking policy uses back edges to place signature checks inside loops.
package cfg

import (
	"fmt"

	"repro/internal/isa"
)

// Block is a basic block: the maximal straight-line range [Start, End).
type Block struct {
	ID    int
	Start uint32
	End   uint32 // exclusive

	// Succs lists the statically known successor block start addresses
	// (branch target and/or fall-through). Indirect successors (ret, jmpr,
	// callr) are not enumerable statically.
	Succs []uint32
	// HasIndirectSucc marks blocks ending in ret/jmpr/callr.
	HasIndirectSucc bool
}

// Len returns the number of instructions in the block.
func (b *Block) Len() uint32 { return b.End - b.Start }

// Contains reports whether addr lies inside the block.
func (b *Block) Contains(addr uint32) bool { return addr >= b.Start && addr < b.End }

func (b *Block) String() string {
	return fmt.Sprintf("B%d[0x%x,0x%x)", b.ID, b.Start, b.End)
}

// Graph is the control-flow graph of a program.
type Graph struct {
	Prog   *isa.Program
	Blocks []*Block
	// blockOf maps every instruction address to its block index.
	blockOf []int32
}

// Build scans the program and recovers all basic blocks. Every instruction
// off the null page (address 0, which is never code) belongs to exactly
// one block; leaders are the entry point, every direct branch target, and
// every instruction following a terminator (so that unreachable/cold code
// is still partitioned into blocks, which matters for classifying wild
// branch targets).
func Build(p *isa.Program) *Graph {
	n := p.Len()
	if n <= 1 {
		return &Graph{Prog: p}
	}
	leader := make([]bool, n)
	leader[1] = true
	if p.Contains(p.Entry) {
		leader[p.Entry] = true
	}
	for addr := uint32(1); addr < n; addr++ {
		in := p.Code[addr]
		if in.Op.IsDirectBranch() {
			if tgt := in.Target(addr); p.Contains(tgt) {
				leader[tgt] = true
			}
		}
		if in.Op.IsTerminator() && addr+1 < n {
			leader[addr+1] = true
		}
	}
	// Addresses materialized for indirect flow (movi rd, =label) are entry
	// points too. Marking every in-range immediate would shred blocks, so
	// a second pass marks only labelled ones, and only when the program
	// contains an indirect branch at all.
	hasIndirect := false
	for _, in := range p.Code {
		if in.Op == isa.OpJmpR || in.Op == isa.OpCallR {
			hasIndirect = true
			break
		}
	}
	if hasIndirect {
		for _, in := range p.Code {
			if in.Op == isa.OpMovRI && in.Imm > 0 && uint32(in.Imm) < n {
				if _, ok := p.Symbols[uint32(in.Imm)]; ok {
					leader[uint32(in.Imm)] = true
				}
			}
		}
	}

	// Every leader starts a block (the instruction after a terminator is
	// one), so the blocks, and their successor lists of at most two, are
	// carved from one array each.
	nb := 0
	for _, l := range leader {
		if l {
			nb++
		}
	}
	blocks := make([]Block, nb)
	succs := make([]uint32, 2*nb)
	g := &Graph{
		Prog:    p,
		Blocks:  make([]*Block, nb),
		blockOf: make([]int32, n),
	}
	g.blockOf[0] = -1
	id := -1
	for addr := uint32(1); addr < n; addr++ {
		if leader[addr] {
			id++
			blocks[id] = Block{ID: id, Start: addr, End: n, Succs: succs[2*id : 2*id : 2*id+2]}
			g.Blocks[id] = &blocks[id]
			if id > 0 && blocks[id-1].End == n {
				blocks[id-1].End = addr
			}
		}
		g.blockOf[addr] = int32(id)
		if in := p.Code[addr]; in.Op.IsTerminator() {
			cur := &blocks[id]
			cur.End = addr + 1
			fillSuccs(cur, addr, in, n)
		}
	}
	// Fall-through successors for blocks split by a leader (no terminator).
	for _, b := range g.Blocks {
		last := p.Code[b.End-1]
		if !last.Op.IsTerminator() && b.End < n {
			b.Succs = append(b.Succs, b.End)
		}
	}
	return g
}

func fillSuccs(b *Block, addr uint32, in isa.Instr, n uint32) {
	switch {
	case in.Op.IsDirectBranch():
		if tgt := in.Target(addr); tgt != 0 && tgt < n {
			b.Succs = append(b.Succs, tgt)
		}
		if in.Op.HasFallthrough() && addr+1 < n {
			b.Succs = append(b.Succs, addr+1)
		}
	case in.Op == isa.OpRet, in.Op == isa.OpJmpR:
		b.HasIndirectSucc = true
	case in.Op == isa.OpCallR:
		b.HasIndirectSucc = true
		if addr+1 < n {
			b.Succs = append(b.Succs, addr+1)
		}
	}
}

// NumBlocks returns the number of basic blocks.
func (g *Graph) NumBlocks() int { return len(g.Blocks) }

// BlockAt returns the block containing addr, or nil when addr is outside
// the code region or on the null page.
func (g *Graph) BlockAt(addr uint32) *Block {
	if addr == 0 || addr >= uint32(len(g.blockOf)) {
		return nil
	}
	return g.Blocks[g.blockOf[addr]]
}

// BlockStarting returns the block whose first instruction is addr, or nil.
func (g *Graph) BlockStarting(addr uint32) *Block {
	if b := g.BlockAt(addr); b != nil && b.Start == addr {
		return b
	}
	return nil
}

// IsBlockStart reports whether addr is the first instruction of a block.
func (g *Graph) IsBlockStart(addr uint32) bool { return g.BlockStarting(addr) != nil }

// IsBackEdge reports whether a branch at fromAddr targeting target closes a
// loop. We use the standard dynamic-translation heuristic: a backward
// direct branch (target at or before the branch) is a back edge. The RET-BE
// policy uses this to guarantee checks inside every loop, bounding
// error-report latency.
func IsBackEdge(fromAddr, target uint32) bool { return target <= fromAddr }

// HasBackEdge reports whether the block ends with a backward direct branch.
func (g *Graph) HasBackEdge(b *Block) bool {
	last := g.Prog.Code[b.End-1]
	if !last.Op.IsDirectBranch() {
		return false
	}
	return IsBackEdge(b.End-1, last.Target(b.End-1))
}

// EndsWithRet reports whether the block ends with a return instruction.
func (g *Graph) EndsWithRet(b *Block) bool {
	return g.Prog.Code[b.End-1].Op == isa.OpRet
}

// Stats summarizes block-size structure, used to sanity-check workload
// shapes (the paper's fp benchmarks have large blocks, int small ones).
type Stats struct {
	Blocks       int
	MeanSize     float64
	MaxSize      uint32
	BackEdges    int
	IndirectEnds int
}

// ComputeStats returns structural statistics for the graph.
func (g *Graph) ComputeStats() Stats {
	var s Stats
	s.Blocks = len(g.Blocks)
	var total uint64
	for _, b := range g.Blocks {
		total += uint64(b.Len())
		if b.Len() > s.MaxSize {
			s.MaxSize = b.Len()
		}
		if g.HasBackEdge(b) {
			s.BackEdges++
		}
		if b.HasIndirectSucc {
			s.IndirectEnds++
		}
	}
	if s.Blocks > 0 {
		s.MeanSize = float64(total) / float64(s.Blocks)
	}
	return s
}
