package asm

import (
	"fmt"
	"strings"

	"repro/internal/isa"
)

// Disassemble renders a program as annotated assembly text, with labels for
// every symbol and branch targets resolved to labels where possible. The
// null page (address 0) is not code and is left out, so the text
// assembles back to the same image.
func Disassemble(p *isa.Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "; program %s  (%d instructions, entry %s, data %d words)\n",
		p.Name, p.Len(), p.SymbolAt(p.Entry), p.DataWords)
	for addr, in := range p.Code {
		a := uint32(addr)
		if a == 0 {
			continue
		}
		if sym, ok := p.Symbols[a]; ok {
			fmt.Fprintf(&b, "%s:\n", sym)
		}
		if in.Op.IsDirectBranch() {
			tgt := in.Target(a)
			mn := in.Op.String()
			switch in.Op {
			case isa.OpJcc:
				fmt.Fprintf(&b, "  0x%06x  j%s %s\n", a, in.Cond(), p.SymbolAt(tgt))
			case isa.OpJrz:
				fmt.Fprintf(&b, "  0x%06x  jrz %s, %s\n", a, in.RS1, p.SymbolAt(tgt))
			default:
				fmt.Fprintf(&b, "  0x%06x  %s %s\n", a, mn, p.SymbolAt(tgt))
			}
			continue
		}
		fmt.Fprintf(&b, "  0x%06x  %s\n", a, in)
	}
	return b.String()
}
