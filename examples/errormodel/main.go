// Errormodel: walk the paper's Section 2 classification on a small,
// readable program. Every executed direct branch contributes one fault
// site per offset bit and (when conditional) per flag bit; each site is
// classified into categories A-F or "no error". The example prints the
// per-program Figure 2-style table, then drills into a single branch to
// show exactly where each bit flip would land.
package main

import (
	"fmt"
	"log"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/errmodel"
	"repro/internal/isa"
)

const src = `
; two-block loop plus a cold helper, small enough to study by hand
main:
    movi eax, 0
    movi ecx, 6
loop:
    add eax, ecx
    cmpi eax, 100
    jlt small
    subi eax, 50
small:
    subi ecx, 1
    cmpi ecx, 0
    jgt loop
    out eax
    halt
helper:
    addi eax, 1
    ret
`

func main() {
	p, err := core.Assemble("errormodel", src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(core.Disassemble(p))
	fmt.Println()

	tab, err := core.AnalyzeErrors(p, 1_000_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(errmodel.FormatFigure2("Branch-error probabilities (this program)", tab))
	fmt.Println()
	fmt.Print(errmodel.FormatFigure3("Normalized over A-E", tab))
	fmt.Println()

	// Drill into the loop's back edge: enumerate the first 8 offset-bit
	// flips and classify each landing site.
	g := cfg.Build(p)
	blocks := errmodel.BlocksOf(g)
	var branchIP uint32
	for addr, in := range p.Code {
		if in.Op == isa.OpJcc && in.Target(uint32(addr)) < uint32(addr) {
			branchIP = uint32(addr) // the backward jgt
		}
	}
	in := p.Code[branchIP]
	fmt.Printf("back edge at 0x%x (%s), correct target 0x%x:\n", branchIP, in, in.Target(branchIP))
	for bit := 0; bit < 8; bit++ {
		tgt := branchIP + 1 + uint32(in.Imm^(1<<bit))
		cat := blocks.Classify(branchIP, tgt)
		where := "outside code"
		if b := g.BlockAt(tgt); b != nil {
			where = fmt.Sprintf("block [0x%x,0x%x)", b.Start, b.End)
		}
		fmt.Printf("  flip offset bit %d -> 0x%06x  category %-2s (%s)\n", bit, tgt, cat, where)
	}
}
