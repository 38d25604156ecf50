package asm

import (
	"maps"
	"testing"
)

// FuzzAssemble feeds arbitrary text to the assembler, the trust boundary
// for source files (cfc-asm). Assembling must never panic, a program it
// accepts must pass Validate, its symbol table must name each labelled
// address by the smallest label defined there, and the program's
// disassembly must assemble back to the same code. Seeds are the
// all-forms and sample sources of the unit tests, the all-forms source
// with the flag-stack forms and an entry directive added, and a source
// with several labels at one address. Plain `go test` replays the seeds;
// `go test -fuzz FuzzAssemble` searches.
func FuzzAssemble(f *testing.F) {
	f.Add(allFormsSrc)
	f.Add(sampleSrc)
	f.Add(".data 8\n.entry fn\n" + allFormsSrc + "    pushf\n    popf\n    jmp fn\n")
	f.Add("zz: b: a:\n    jmp b\nc: a2:\n    jmp zz\n    halt\nend:\n")
	f.Fuzz(func(t *testing.T, src string) {
		b, err := parse("fuzz", src)
		if err != nil {
			return
		}
		want := map[uint32]string{}
		for name, l := range b.named {
			if addr := b.labels[l].addr; addr != 0 {
				if cur, ok := want[addr]; !ok || name < cur {
					want[addr] = name
				}
			}
		}
		p, err := b.Build()
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted program fails Validate: %v", err)
		}
		if !maps.Equal(p.Symbols, want) {
			t.Fatalf("symbols %v, want the smallest label at each address: %v", p.Symbols, want)
		}
		text := Disassemble(p)
		p2, err := Assemble("fuzz2", stripComments(text))
		if err != nil {
			t.Fatalf("disassembly does not assemble: %v\n%s", err, text)
		}
		if len(p2.Code) != len(p.Code) {
			t.Fatalf("reassembled %d words, want %d\n%s", len(p2.Code), len(p.Code), text)
		}
		for i := range p.Code {
			if p.Code[i] != p2.Code[i] {
				t.Fatalf("word %d reassembles to %v, want %v\n%s", i, p2.Code[i], p.Code[i], text)
			}
		}
	})
}
