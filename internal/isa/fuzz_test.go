package isa

import (
	"bytes"
	"testing"
)

// FuzzLoadImage feeds arbitrary bytes, entry points and data sizes to the
// program loader, the trust boundary for binaries read from disk
// (cfc-run, cfc-asm). Loading must never panic, and a program it accepts
// must pass Validate, keep its entry and every direct branch target off
// the null page, and re-encode to the very image it was loaded from.
// Seeds are a valid program, the same image with its entry on the null
// page, with a branch to the null page, and truncated mid-instruction.
// Plain `go test` replays the seeds; `go test -fuzz FuzzLoadImage`
// searches.
func FuzzLoadImage(f *testing.F) {
	p := sampleProgram()
	img := p.Image()
	f.Add(img, p.Entry, p.DataWords)
	f.Add(img, uint32(0), p.DataWords)
	toNull := sampleProgram()
	toNull.Code[3].Imm = -4
	f.Add(toNull.Image(), p.Entry, p.DataWords)
	f.Add(img[:len(img)-3], p.Entry, uint32(0))
	f.Fuzz(func(t *testing.T, image []byte, entry, dataWords uint32) {
		p, err := LoadImage("fuzz", image, entry, dataWords)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted program fails Validate: %v", err)
		}
		if p.Entry == 0 || !p.Contains(p.Entry) {
			t.Fatalf("accepted entry %#x of %d words", p.Entry, p.Len())
		}
		for addr, in := range p.Code {
			if in.Op.IsDirectBranch() && in.Target(uint32(addr)) == 0 {
				t.Fatalf("accepted a branch to the null page at %#x", addr)
			}
		}
		if !bytes.Equal(p.Image(), image) {
			t.Fatal("accepted program re-encodes to a different image")
		}
	})
}
