package check

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/isa"
)

// StaticKind selects a baseline instrumenter applied offline to whole
// programs. The paper could not host CFCSS and ECCA inside its
// translate-on-demand DBT because both need the full CFG up front to assign
// signatures; we reproduce them as static rewriters so the coverage
// comparison of Section 3 can be run empirically.
type StaticKind int

// Static baseline kinds.
const (
	// StaticCFCSS is Oh/Shirvani/McCluskey control-flow checking by
	// software signatures: block-entry signature update + compare, with the
	// fan-in constraint forcing predecessor signature aliasing.
	StaticCFCSS StaticKind = iota
	// StaticECCA is Alkhalifa et al.'s Enhanced Control-flow Checking
	// using Assertions: a block-entry assertion accepting any legal
	// predecessor id and an end-of-block id assignment. (The original
	// routes the assertion through a div-by-zero trap; this implementation
	// reports through the same OpReport channel as the other techniques,
	// which does not change coverage.)
	StaticECCA
)

// String names the kind.
func (k StaticKind) String() string {
	if k == StaticCFCSS {
		return "CFCSS"
	}
	return "ECCA"
}

// InstrumentStatic rewrites a guest program with the selected baseline
// technique, producing a target-ISA program whose checks report through
// OpReport. Programs containing register-indirect jumps or calls are
// rejected: static rewriting cannot relocate address constants that flow
// into indirect branches (the classic static-instrumentation limitation
// that motivates the paper's DBT approach). Plain call/ret is supported.
func InstrumentStatic(p *isa.Program, kind StaticKind) (*isa.Program, error) {
	for addr, in := range p.Code {
		if in.Op == isa.OpJmpR || in.Op == isa.OpCallR {
			return nil, fmt.Errorf("%s: @0x%x: %s: static instrumentation cannot relocate indirect branch targets",
				p.Name, addr, in.Op)
		}
	}
	g := cfg.Build(p)
	n := g.NumBlocks()
	if n == 0 {
		return nil, fmt.Errorf("%s: empty program", p.Name)
	}
	preds, continuation := predecessors(p, g)
	entryBlock := g.BlockAt(p.Entry)

	bb := asm.NewBuilder(p.Name + "+" + kind.String())
	bb.SetTarget()
	bb.SetDataWords(p.DataWords)
	// The rewrite's exact size, so that Build hands its code out without
	// a copy: the image past the null word NewBuilder holds, the
	// prologue's two words and each block's instrumentation. Every block
	// and every check gets a label.
	words := len(p.Code) - 1 + 2
	for _, b := range g.Blocks {
		switch {
		case continuation[b.ID]:
			words++
		case kind == StaticCFCSS:
			words += 4
		default:
			accepts := len(preds[b.ID])
			if b == entryBlock {
				accepts++
			}
			words += 2*accepts + 2
		}
		if kind == StaticECCA {
			words++
		}
	}
	bb.Grow(words, 2*n+1)
	prologue := bb.Named("prologue")
	bb.SetEntry(prologue)
	labels := make([]asm.Label, n)
	for i, b := range g.Blocks {
		labels[i] = bb.Numbered("b", b.Start, 16)
	}
	bl := func(start uint32) asm.Label {
		if b := g.BlockStarting(start); b != nil {
			return labels[b.ID]
		}
		return bb.Numbered("b", start, 16) // never bound: Build reports it
	}
	okCount := uint32(0)
	okLabel := func() asm.Label { okCount++; return bb.Numbered("ok", okCount, 10) }

	switch kind {
	case StaticCFCSS:
		sigs, d := cfcssAssignment(g, preds)
		// Prologue: G primed so the entry block's own update lands on its
		// signature (loop-backs to the entry then work unchanged).
		bb.Bind(prologue)
		bb.MovI(regPC, sigs[entryBlock.ID]-d[entryBlock.ID])
		bb.Jmp(labels[entryBlock.ID])
		for _, b := range g.Blocks {
			bb.Bind(labels[b.ID])
			if continuation[b.ID] {
				bb.MovI(regPC, sigs[b.ID])
			} else {
				bb.Lea(regPC, regPC, d[b.ID])
				ok := okLabel()
				bb.Lea(regSCR, regPC, -sigs[b.ID])
				bb.Jrz(regSCR, ok)
				bb.Emit(isa.Instr{Op: isa.OpReport})
				bb.Bind(ok)
			}
			copyBody(bb, p, b)
			copyTerminator(bb, p, b, bl)
		}

	case StaticECCA:
		ids := make([]int32, n)
		for i := range ids {
			ids[i] = int32(i) + 1
		}
		initID := int32(n) + 1
		bb.Bind(prologue)
		bb.MovI(regPC, initID)
		bb.Jmp(labels[entryBlock.ID])
		for _, b := range g.Blocks {
			bb.Bind(labels[b.ID])
			if continuation[b.ID] {
				bb.MovI(regPC, ids[b.ID])
			} else {
				ok := okLabel()
				for _, pb := range preds[b.ID] {
					bb.Lea(regSCR, regPC, -ids[pb])
					bb.Jrz(regSCR, ok)
				}
				if b == entryBlock {
					bb.Lea(regSCR, regPC, -initID)
					bb.Jrz(regSCR, ok)
				}
				bb.Emit(isa.Instr{Op: isa.OpReport})
				bb.Bind(ok)
				bb.MovI(regPC, ids[b.ID])
			}
			copyBody(bb, p, b)
			// End-of-block id assignment (the NEXT product in the
			// concrete technique): executed even when an error lands
			// mid-block, which is exactly ECCA's category C/E hole.
			bb.MovI(regPC, ids[b.ID])
			copyTerminator(bb, p, b, bl)
		}
	default:
		return nil, fmt.Errorf("unknown static kind %d", kind)
	}

	out, err := bb.Build()
	if err != nil {
		return nil, fmt.Errorf("%s: instrumentation failed: %v", p.Name, err)
	}
	return out, nil
}

// predecessors lists each block's static predecessors, in block order,
// carved from one backing array, and marks call-continuation blocks.
// A continuation is reached through the callee's return, not through
// the call's static fall-through edge; it gets a signature reset
// instead of an inherited signature (an intra-procedural
// simplification both original papers also make in spirit: signatures
// are not carried across call boundaries).
func predecessors(p *isa.Program, g *cfg.Graph) (preds [][]int, continuation []bool) {
	n := g.NumBlocks()
	continuation = make([]bool, n)
	count := make([]int, n)
	edges := 0
	for _, b := range g.Blocks {
		last := p.Code[b.End-1]
		for _, s := range b.Succs {
			sb := g.BlockStarting(s)
			if last.Op == isa.OpCall && s == b.End {
				continuation[sb.ID] = true
				continue
			}
			count[sb.ID]++
			edges++
		}
	}
	backing := make([]int, edges)
	preds = make([][]int, n)
	off := 0
	for i, c := range count {
		preds[i] = backing[off : off : off+c]
		off += c
	}
	for _, b := range g.Blocks {
		last := p.Code[b.End-1]
		for _, s := range b.Succs {
			if last.Op == isa.OpCall && s == b.End {
				continue
			}
			sb := g.BlockStarting(s)
			preds[sb.ID] = append(preds[sb.ID], b.ID)
		}
	}
	return preds, continuation
}

// cfcssAssignment computes the CFCSS signature assignment over the CFG:
// blocks sharing a successor are unified into one signature class (the
// common-predecessor constraint), then d(B) = sig(B) - sig(basePred(B)) in
// the additive algebra.
func cfcssAssignment(g *cfg.Graph, preds [][]int) (sigs, d []int32) {
	n := g.NumBlocks()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, ps := range preds {
		for i := 1; i < len(ps); i++ {
			parent[find(ps[0])] = find(ps[i])
		}
	}
	// Classes are numbered from 1 in order of first appearance.
	sigs = make([]int32, n)
	class := make([]int32, n) // by root; 0 until numbered
	classes := int32(0)
	for b := 0; b < n; b++ {
		root := find(b)
		if class[root] == 0 {
			classes++
			class[root] = classes
		}
		sigs[b] = class[root]
	}
	d = make([]int32, n)
	for b := 0; b < n; b++ {
		if len(preds[b]) > 0 {
			d[b] = sigs[b] - sigs[preds[b][0]]
		}
	}
	return sigs, d
}

// copyBody re-emits a block's instructions up to its terminator.
func copyBody(bb *asm.Builder, p *isa.Program, b *cfg.Block) {
	end := b.End
	if p.Code[end-1].Op.IsTerminator() {
		end--
	}
	bb.Emit(p.Code[b.Start:end]...)
}

// copyTerminator re-emits a block's terminator with its branch target
// remapped to the target block's label. A block without a terminator
// falls through into the next emitted block.
func copyTerminator(bb *asm.Builder, p *isa.Program, b *cfg.Block, bl func(uint32) asm.Label) {
	termAddr := b.End - 1
	last := p.Code[termAddr]
	if !last.Op.IsTerminator() {
		return
	}
	switch last.Op {
	case isa.OpJmp:
		bb.Jmp(bl(last.Target(termAddr)))
	case isa.OpJcc:
		bb.Jcc(last.Cond(), bl(last.Target(termAddr)))
	case isa.OpJrz:
		bb.Jrz(last.RS1, bl(last.Target(termAddr)))
	case isa.OpCall:
		bb.Call(bl(last.Target(termAddr)))
	default:
		// ret, halt: position independent.
		bb.Emit(last)
	}
}
