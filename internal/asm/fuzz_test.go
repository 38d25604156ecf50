package asm

import "testing"

// FuzzAssemble feeds arbitrary text to the assembler, the trust boundary
// for source files (cfc-asm). Assembling must never panic, a program it
// accepts must pass Validate, and the program's disassembly must assemble
// back to the same code. Seeds are the all-forms and sample
// sources of the unit tests, and the all-forms source with the flag-stack
// forms and an entry directive added. Plain `go test` replays the seeds;
// `go test -fuzz FuzzAssemble` searches.
func FuzzAssemble(f *testing.F) {
	f.Add(allFormsSrc)
	f.Add(sampleSrc)
	f.Add(".data 8\n.entry fn\n" + allFormsSrc + "    pushf\n    popf\n    jmp fn\n")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble("fuzz", src)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted program fails Validate: %v", err)
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
