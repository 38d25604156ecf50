package isa

import "fmt"

// Program is a loaded guest binary: a flat code image plus an entry point.
// Addresses within the program are instruction-word indices starting at 0;
// the machine maps the code at a base address so that out-of-image branch
// targets model the paper's category F (jump to a non-code memory region).
// Address 0 is the null page: it is never code, whatever word the image
// holds there (see NullPad).
type Program struct {
	// Name identifies the program (e.g. the benchmark name).
	Name string
	// Code is the decoded instruction stream.
	Code []Instr
	// Entry is the index of the first instruction to execute.
	Entry uint32
	// DataWords is the size of the initialized+bss data segment in words.
	// The stack grows down from the top of the data segment.
	DataWords uint32
	// Symbols optionally maps addresses to labels, for diagnostics.
	Symbols map[uint32]string
	// Target marks programs in the target ISA (16 registers, pseudo-ops
	// allowed): the output of static instrumentation rather than a guest
	// binary.
	Target bool
}

// Len returns the number of instructions in the program.
func (p *Program) Len() uint32 { return uint32(len(p.Code)) }

// NullPad is the word a producer that lays code out from address 0 puts
// there to keep it off the null page. No engine executes it: a fetch at
// address 0 traps as one outside the image does, as on IA32, where page 0
// is unmapped, so a return through a stack word the run never wrote (0)
// is a hardware-detected category-F error rather than a restart.
var NullPad = Instr{Op: OpHalt}

// Contains reports whether addr is a valid instruction address: inside
// the image and off the null page.
func (p *Program) Contains(addr uint32) bool { return addr != 0 && addr < p.Len() }

// At returns the instruction at addr.
func (p *Program) At(addr uint32) Instr { return p.Code[addr] }

// SymbolAt returns the label at addr, or a hex rendering.
func (p *Program) SymbolAt(addr uint32) string {
	if s, ok := p.Symbols[addr]; ok {
		return s
	}
	return fmt.Sprintf("0x%x", addr)
}

// Validate checks every instruction against the guest register file and
// verifies that the entry point and all direct branch targets lie inside the
// image and off the null page. It returns the first problem found. Runs
// of plain words pass a branch-free scan (plainWords); Instr.Validate
// checks the rest and builds the error.
func (p *Program) Validate() error {
	if len(p.Code) == 0 {
		return fmt.Errorf("%s: empty program", p.Name)
	}
	if !p.Contains(p.Entry) {
		return fmt.Errorf("%s: entry 0x%x outside code (%d words, address 0 is never code)", p.Name, p.Entry, p.Len())
	}
	nregs := NumGuestRegs
	if p.Target {
		nregs = NumRegs
	}
	for addr := 0; ; addr++ {
		addr += plainWords(p.Code[addr:], nregs)
		if addr == len(p.Code) {
			return nil
		}
		in := &p.Code[addr]
		if err := in.Validate(nregs); err != nil {
			return fmt.Errorf("%s: @0x%x: %v", p.Name, addr, err)
		}
		if !p.Target && (in.Op == OpReport || in.Op == OpTrapOut) {
			return fmt.Errorf("%s: @0x%x: pseudo-op %s in guest binary", p.Name, addr, in.Op)
		}
		if in.Op.IsDirectBranch() {
			if tgt := in.Target(uint32(addr)); !p.Contains(tgt) {
				return fmt.Errorf("%s: @0x%x: branch target 0x%x outside code (address 0 is never code)", p.Name, addr, tgt)
			}
		}
	}
}

// Image serializes the program code to its binary form.
func (p *Program) Image() []byte { return EncodeProgram(p.Code) }

// LoadImage decodes a binary image into a Program with the given name,
// entry point and data size.
func LoadImage(name string, image []byte, entry, dataWords uint32) (*Program, error) {
	code, err := DecodeProgram(image)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", name, err)
	}
	p := &Program{Name: name, Code: code, Entry: entry, DataWords: dataWords}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
