package errmodel

import (
	"math"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/workloads"
)

func mustAssemble(t *testing.T, src string) *isa.Program {
	t.Helper()
	p, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestClassify(t *testing.T) {
	p := mustAssemble(t, `
main:
    movi ecx, 3      ; B0: 1
loop:
    addi eax, 1      ; B1: 2-5
    subi ecx, 1
    cmpi ecx, 0
    jgt loop
    out eax          ; B2: 6-7
    halt
`)
	b := BlocksOf(cfg.Build(p))
	// Branch at address 5 (jgt) lives in B1 [2,6).
	cases := []struct {
		target uint32
		want   Category
	}{
		{2, CatB},       // beginning of same block
		{3, CatC},       // middle of same block
		{4, CatC},       // middle of same block
		{1, CatD},       // beginning of other block (B0)
		{6, CatD},       // beginning of other block (B2)
		{7, CatE},       // middle of other block
		{0, CatF},       // the null page
		{1000, CatF},    // outside code
		{1 << 30, CatF}, // far outside
	}
	for _, c := range cases {
		if got := b.Classify(5, c.target); got != c.want {
			t.Errorf("Classify(5, %d) = %v, want %v", c.target, got, c.want)
		}
	}
}

// cfgClassify is the rule Blocks.Classify replaced: both addresses are
// looked up in the CFG's per-address block index.
func cfgClassify(g *cfg.Graph, branchIP, target uint32) Category {
	tb := g.BlockAt(target)
	if tb == nil {
		return CatF
	}
	if tb == g.BlockAt(branchIP) {
		if target == tb.Start {
			return CatB
		}
		return CatC
	}
	if target == tb.Start {
		return CatD
	}
	return CatE
}

// TestBlocksMatchCFGRule pins the block-starts rule to the CFG lookup on
// real workloads: every taken branch's 32 offset flips, every block start
// and its neighbours as both branch and target, and the code's edges.
func TestBlocksMatchCFGRule(t *testing.T) {
	for _, name := range []string{"164.gzip", "181.mcf", "197.parser"} {
		prof, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := prof.Build(0.05)
		if err != nil {
			t.Fatal(err)
		}
		g := cfg.Build(p)
		b := BlocksOf(g)
		n := p.Len()
		bad, branches := 0, 0
		check := func(ip, target uint32) {
			if got, want := b.Classify(ip, target), cfgClassify(g, ip, target); got != want && bad < 10 {
				bad++
				t.Errorf("%s: Classify(%#x, %#x) = %v, CFG rule %v", name, ip, target, got, want)
			}
		}
		for ip, in := range p.Code {
			if !in.Op.IsDirectBranch() {
				continue
			}
			branches++
			for bit := 0; bit < isa.OffsetBits; bit++ {
				check(uint32(ip), uint32(ip)+1+uint32(in.Imm^(int32(1)<<bit)))
			}
		}
		for _, blk := range g.Blocks {
			for _, d := range []uint32{^uint32(0), 0, 1} {
				check(blk.Start, blk.Start+d)
				check(blk.Start+d, blk.Start)
			}
		}
		edges := []uint32{0, n - 1, n, ^uint32(0)}
		for _, ip := range edges {
			for _, target := range edges {
				check(ip, target)
			}
		}
		if len(b.Starts) != g.NumBlocks() || branches == 0 {
			t.Errorf("%s: %d starts of %d blocks, %d branches", name, len(b.Starts), g.NumBlocks(), branches)
		}
	}
}

func TestAnalyzeAccounting(t *testing.T) {
	p := mustAssemble(t, `
main:
    movi ecx, 4
loop:
    subi ecx, 1
    cmpi ecx, 0
    jgt loop
    halt
`)
	tab, err := Analyze(p, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	// The jgt executes 4 times: 3 taken, 1 not taken.
	if tab.Branches != 4 {
		t.Fatalf("branches = %d, want 4", tab.Branches)
	}
	// Sites: each execution has 32 offset + 5 flag sites.
	want := uint64(4 * (isa.OffsetBits + isa.NumFlagBits))
	if tab.Total != want {
		t.Errorf("total sites = %d, want %d", tab.Total, want)
	}
	// Not-taken address flips are all No Error.
	if got := tab.Counts[CatNoError][0][0]; got != isa.OffsetBits {
		t.Errorf("not-taken addr no-error = %d, want %d", got, isa.OffsetBits)
	}
	// Probabilities sum to 1.
	var sum float64
	for c := Category(0); c < NumCategories; c++ {
		sum += tab.CategoryProb(c)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probability sum = %v", sum)
	}
}

func TestMistakenBranchesClassifiedA(t *testing.T) {
	// jeq with Z set: flipping Z (and only Z among the condition-relevant
	// bits) changes the direction.
	p := mustAssemble(t, `
    movi eax, 1
    cmpi eax, 1
    jeq done
    nop
done:
    halt
`)
	tab, err := Analyze(p, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if tab.CategoryProb(CatA) == 0 {
		t.Error("no category A sites found for a conditional branch")
	}
	// A-sites from a taken branch are flag faults.
	if tab.Counts[CatA][1][1] == 0 {
		t.Error("taken/flags A cell empty")
	}
	if tab.Counts[CatA][0][0] != 0 || tab.Counts[CatA][1][0] != 0 {
		t.Error("address flips cannot produce category A")
	}
}

func TestUnconditionalBranchesHaveNoFlagSites(t *testing.T) {
	p := mustAssemble(t, `
    jmp over
over:
    halt
`)
	tab, err := Analyze(p, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Total != isa.OffsetBits {
		t.Errorf("total = %d, want %d (offset bits only)", tab.Total, isa.OffsetBits)
	}
	for c := Category(0); c < NumCategories; c++ {
		if tab.Counts[c][1][1]+tab.Counts[c][0][1] != 0 {
			t.Errorf("flag sites recorded for unconditional branch (cat %v)", c)
		}
	}
}

func TestSelfLoopProducesCategoryC(t *testing.T) {
	// A single-block loop: low-bit offset flips land inside the same
	// block — the mechanism behind the paper's high category C for
	// SPEC-Fp (big blocks, tight loops).
	p := mustAssemble(t, `
main:
    movi ecx, 100
loop:
    addi eax, 1
    addi eax, 2
    addi eax, 3
    addi eax, 4
    addi eax, 5
    addi eax, 6
    subi ecx, 1
    cmpi ecx, 0
    jgt loop
    halt
`)
	tab, err := Analyze(p, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if tab.CategoryProb(CatC) == 0 {
		t.Error("self-loop should produce category C sites")
	}
	// Category B needs a flip landing exactly on the block start — rare by
	// construction (the paper measures ~0.1%), so no assertion on it here.
	// High offset bits leave the tiny code region: F dominates.
	if tab.CategoryProb(CatF) < tab.CategoryProb(CatC) {
		t.Error("tiny program: F should dominate C")
	}
}

func TestNormalizedSumsToOne(t *testing.T) {
	p := mustAssemble(t, `
main:
    movi ecx, 50
loop:
    addi eax, 1
    cmpi eax, 3
    jlt skip
    movi eax, 0
skip:
    subi ecx, 1
    cmpi ecx, 0
    jgt loop
    halt
`)
	tab, err := Analyze(p, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	norm := tab.Normalized()
	var sum float64
	for _, v := range norm {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("normalized sum = %v", sum)
	}
	// E should beat B in any multi-block program (paper's headline shape).
	if norm[CatE] <= norm[CatB] {
		t.Errorf("E (%v) should exceed B (%v)", norm[CatE], norm[CatB])
	}
}

func TestAddMerge(t *testing.T) {
	p := mustAssemble(t, "main:\n movi ecx, 2\nl:\n subi ecx, 1\n cmpi ecx, 0\n jgt l\n halt\n")
	t1, err := Analyze(p, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	t2 := &Table{}
	t2.Add(t1)
	t2.Add(t1)
	if t2.Total != 2*t1.Total || t2.Branches != 2*t1.Branches {
		t.Error("Add did not merge counts")
	}
	if math.Abs(t2.CategoryProb(CatF)-t1.CategoryProb(CatF)) > 1e-12 {
		t.Error("probabilities must be invariant under self-merge")
	}
}

func TestAnalyzeFailsOnBrokenProgram(t *testing.T) {
	p := &isa.Program{Name: "spin", Code: []isa.Instr{{Op: isa.OpJmp, Imm: -1}}}
	if _, err := Analyze(p, 100); err == nil {
		t.Error("non-halting program should fail analysis")
	}
}

func TestFormatting(t *testing.T) {
	p := mustAssemble(t, "main:\n movi ecx, 2\nl:\n subi ecx, 1\n cmpi ecx, 0\n jgt l\n halt\n")
	tab, err := Analyze(p, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	f2 := FormatFigure2("Figure 2 - test", tab)
	if !strings.Contains(f2, "No Error") || !strings.Contains(f2, "Tk/Addr") {
		t.Errorf("figure 2 format:\n%s", f2)
	}
	f3 := FormatFigure3("Figure 3 - test", tab)
	if !strings.Contains(f3, "%") {
		t.Errorf("figure 3 format:\n%s", f3)
	}
}
