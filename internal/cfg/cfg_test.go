package cfg

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

func build(t *testing.T, src string) *Graph {
	t.Helper()
	p, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	return Build(p)
}

func TestLinearProgram(t *testing.T) {
	g := build(t, "movi eax, 1\naddi eax, 2\nout eax\nhalt\n")
	if g.NumBlocks() != 1 {
		t.Fatalf("blocks = %d, want 1", g.NumBlocks())
	}
	b := g.Blocks[0]
	if b.Start != 1 || b.End != 5 || b.Len() != 4 {
		t.Errorf("block = %v", b)
	}
	if len(b.Succs) != 0 {
		t.Errorf("halt block has successors: %v", b.Succs)
	}
}

func TestDiamond(t *testing.T) {
	g := build(t, `
    cmpi eax, 0      ; B0: 1-2
    jeq else
    movi ebx, 1      ; B1: 3-4
    jmp join
else:
    movi ebx, 2      ; B2: 5
join:
    out ebx          ; B3: 6-7
    halt
`)
	if g.NumBlocks() != 4 {
		t.Fatalf("blocks = %d, want 4: %v", g.NumBlocks(), g.Blocks)
	}
	b0 := g.BlockStarting(1)
	if len(b0.Succs) != 2 {
		t.Fatalf("B0 succs = %v", b0.Succs)
	}
	// jeq targets 5 (else) and falls through to 3.
	if b0.Succs[0] != 5 || b0.Succs[1] != 3 {
		t.Errorf("B0 succs = %v, want [5 3]", b0.Succs)
	}
	b1 := g.BlockStarting(3)
	if len(b1.Succs) != 1 || b1.Succs[0] != 6 {
		t.Errorf("B1 succs = %v, want [6]", b1.Succs)
	}
	// Fall-through block split by the join leader.
	b2 := g.BlockStarting(5)
	if len(b2.Succs) != 1 || b2.Succs[0] != 6 {
		t.Errorf("B2 succs = %v, want [6]", b2.Succs)
	}
}

func TestLoopBackEdge(t *testing.T) {
	g := build(t, `
    movi ecx, 10     ; B0
loop:
    subi ecx, 1      ; B1
    cmpi ecx, 0
    jgt loop
    halt             ; B2
`)
	if g.NumBlocks() != 3 {
		t.Fatalf("blocks = %d: %v", g.NumBlocks(), g.Blocks)
	}
	loopBlock := g.BlockStarting(2)
	if loopBlock == nil {
		t.Fatal("no block at loop head")
	}
	if !g.HasBackEdge(loopBlock) {
		t.Error("loop block should have a back edge")
	}
	if g.HasBackEdge(g.BlockStarting(1)) {
		t.Error("entry block has no back edge")
	}
	if !IsBackEdge(3, 1) || IsBackEdge(3, 5) {
		t.Error("IsBackEdge heuristic wrong")
	}
	// Self back-edge (branch to its own address) counts.
	if !IsBackEdge(3, 3) {
		t.Error("self branch is a back edge")
	}
}

func TestCallSplitsBlocks(t *testing.T) {
	g := build(t, `
main:
    movi eax, 1     ; B0: 1-2 (call terminates it)
    call fn
    out eax         ; B1: 3-4
    halt
fn:
    ret             ; B2: 5
`)
	if g.NumBlocks() != 3 {
		t.Fatalf("blocks = %d: %v", g.NumBlocks(), g.Blocks)
	}
	b0 := g.BlockStarting(1)
	// Call successors: target fn (5) and return-continuation (3).
	if len(b0.Succs) != 2 || b0.Succs[0] != 5 || b0.Succs[1] != 3 {
		t.Errorf("call succs = %v, want [5 3]", b0.Succs)
	}
	fn := g.BlockStarting(5)
	if !fn.HasIndirectSucc {
		t.Error("ret block should have indirect successor")
	}
	if !g.EndsWithRet(fn) || g.EndsWithRet(b0) {
		t.Error("EndsWithRet misclassifies")
	}
}

func TestIndirectTargetsAreLeaders(t *testing.T) {
	g := build(t, `
main:
    movi ecx, =fn
    callr ecx
    halt
fn:
    movi eax, 5
    ret
`)
	if !g.IsBlockStart(4) {
		t.Error("indirect call target fn should start a block")
	}
	// callr block: fall-through successor plus indirect.
	b := g.BlockAt(2)
	if !b.HasIndirectSucc {
		t.Error("callr block should be marked indirect")
	}
}

func TestBlockAtClassification(t *testing.T) {
	g := build(t, `
    movi ecx, 3      ; B0: 1
loop:
    subi ecx, 1      ; B1: 2-4
    cmpi ecx, 0
    jgt loop
    halt             ; B2: 5
`)
	if b := g.BlockAt(3); b == nil || b.Start != 2 {
		t.Errorf("BlockAt(3) = %v", b)
	}
	if !g.IsBlockStart(2) || g.IsBlockStart(3) {
		t.Error("block start classification wrong")
	}
	if g.BlockAt(100) != nil {
		t.Error("BlockAt outside code should be nil")
	}
	if g.BlockAt(0) != nil || g.IsBlockStart(0) {
		t.Error("the null page is in no block")
	}
	b := g.BlockAt(4)
	if !b.Contains(4) || b.Contains(5) {
		t.Error("Contains wrong")
	}
}

func TestEveryInstrInExactlyOneBlock(t *testing.T) {
	g := build(t, `
main:
    movi eax, 0
    movi ecx, 4
outer:
    movi ebx, 3
inner:
    add eax, ebx
    subi ebx, 1
    cmpi ebx, 0
    jgt inner
    subi ecx, 1
    cmpi ecx, 0
    jgt outer
    call fn
    out eax
    halt
fn:
    addi eax, 100
    ret
dead:
    nop
    nop
    jmp dead
`)
	n := g.Prog.Len()
	covered := make([]int, n)
	for _, b := range g.Blocks {
		if b.Start >= b.End {
			t.Fatalf("empty block %v", b)
		}
		for a := b.Start; a < b.End; a++ {
			covered[a]++
		}
		if got := g.BlockAt(b.Start); got != b {
			t.Errorf("BlockAt(%#x) = %v, want %v", b.Start, got, b)
		}
	}
	for a, c := range covered {
		if want := min(a, 1); c != want {
			t.Errorf("instr %d covered %d times, want %d", a, c, want)
		}
	}
	// Dead code still has block structure.
	if g.BlockAt(n-1) == nil {
		t.Error("dead code not covered")
	}
}

func TestStats(t *testing.T) {
	g := build(t, `
    movi ecx, 2
l:
    subi ecx, 1
    cmpi ecx, 0
    jgt l
    call f
    halt
f:
    ret
`)
	s := g.ComputeStats()
	if s.Blocks != g.NumBlocks() {
		t.Error("stats block count mismatch")
	}
	if s.BackEdges != 1 {
		t.Errorf("back edges = %d, want 1", s.BackEdges)
	}
	if s.IndirectEnds != 1 {
		t.Errorf("indirect ends = %d, want 1", s.IndirectEnds)
	}
	if s.MeanSize <= 0 || s.MaxSize == 0 {
		t.Errorf("sizes: %+v", s)
	}
}

func TestEmptyProgram(t *testing.T) {
	g := Build(&isa.Program{Name: "empty"})
	if g.NumBlocks() != 0 || g.BlockAt(0) != nil {
		t.Error("empty program should have no blocks")
	}
}

func TestEntryIsLeader(t *testing.T) {
	p, err := asm.Assemble("e", `
pad:
    nop
    nop
.entry main
main:
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	g := Build(p)
	if !g.IsBlockStart(p.Entry) {
		t.Error("entry must start a block")
	}
}
