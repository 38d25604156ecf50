// Package asm provides two front ends for producing guest programs: a
// programmatic Builder with symbolic labels (used by the workload
// generators) and a textual assembler (used by the cfc-asm tool and the
// examples). Both resolve labels to relative branch offsets and produce
// validated isa.Program values.
package asm

import (
	"fmt"
	"sort"

	"repro/internal/isa"
)

type fixup struct {
	at    uint32 // instruction index whose Imm needs patching
	label string
	line  int // source line for diagnostics (0 for builder emits)
}

// Builder incrementally constructs a program, resolving label references at
// Build time. The zero value is not usable; call NewBuilder.
type Builder struct {
	name      string
	code      []isa.Instr
	labels    map[string]uint32
	fixups    []fixup
	dataWords uint32
	entry     string
	target    bool
	errs      []error
}

// NewBuilder returns a Builder for a program with the given name. Code
// is laid out from address 1: address 0, the null page, holds isa.NullPad.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, labels: make(map[string]uint32), code: []isa.Instr{isa.NullPad}}
}

// PC returns the address of the next instruction to be emitted.
func (b *Builder) PC() uint32 { return uint32(len(b.code)) }

// SetDataWords sets the size of the data segment in words.
func (b *Builder) SetDataWords(n uint32) { b.dataWords = n }

// SetEntry makes the given label the program entry point. By default the
// entry is the first instruction emitted, at address 1.
func (b *Builder) SetEntry(label string) { b.entry = label }

// SetTarget marks the program as target-ISA (16 registers, pseudo-ops
// allowed), the output format of static instrumentation.
func (b *Builder) SetTarget() { b.target = true }

// Label defines a label at the current PC.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("label %q redefined", name))
		return
	}
	b.labels[name] = b.PC()
}

// Emit appends a raw instruction.
func (b *Builder) Emit(in isa.Instr) { b.code = append(b.code, in) }

// emitRef appends a branch whose Imm will be patched to reach label.
func (b *Builder) emitRef(in isa.Instr, label string) {
	b.fixups = append(b.fixups, fixup{at: b.PC(), label: label})
	b.code = append(b.code, in)
}

// Convenience emitters. Naming follows the assembler mnemonics.

func (b *Builder) Nop()  { b.Emit(isa.Instr{Op: isa.OpNop}) }
func (b *Builder) Halt() { b.Emit(isa.Instr{Op: isa.OpHalt}) }

func (b *Builder) MovI(rd isa.Reg, imm int32) {
	b.Emit(isa.Instr{Op: isa.OpMovRI, RD: rd, Imm: imm})
}
func (b *Builder) Mov(rd, rs isa.Reg) { b.Emit(isa.Instr{Op: isa.OpMovRR, RD: rd, RS1: rs}) }
func (b *Builder) Lea(rd, rs isa.Reg, imm int32) {
	b.Emit(isa.Instr{Op: isa.OpLea, RD: rd, RS1: rs, Imm: imm})
}
func (b *Builder) Load(rd, base isa.Reg, off int32) {
	b.Emit(isa.Instr{Op: isa.OpLoad, RD: rd, RS1: base, Imm: off})
}
func (b *Builder) Store(base isa.Reg, off int32, rs isa.Reg) {
	b.Emit(isa.Instr{Op: isa.OpStore, RS1: base, RS2: rs, Imm: off})
}
func (b *Builder) Push(rs isa.Reg) { b.Emit(isa.Instr{Op: isa.OpPush, RS1: rs}) }
func (b *Builder) Pop(rd isa.Reg)  { b.Emit(isa.Instr{Op: isa.OpPop, RD: rd}) }

func (b *Builder) Add(rd, rs isa.Reg)       { b.Emit(isa.Instr{Op: isa.OpAdd, RD: rd, RS1: rs}) }
func (b *Builder) AddI(rd isa.Reg, i int32) { b.Emit(isa.Instr{Op: isa.OpAddI, RD: rd, Imm: i}) }
func (b *Builder) Sub(rd, rs isa.Reg)       { b.Emit(isa.Instr{Op: isa.OpSub, RD: rd, RS1: rs}) }
func (b *Builder) SubI(rd isa.Reg, i int32) { b.Emit(isa.Instr{Op: isa.OpSubI, RD: rd, Imm: i}) }
func (b *Builder) And(rd, rs isa.Reg)       { b.Emit(isa.Instr{Op: isa.OpAnd, RD: rd, RS1: rs}) }
func (b *Builder) AndI(rd isa.Reg, i int32) { b.Emit(isa.Instr{Op: isa.OpAndI, RD: rd, Imm: i}) }
func (b *Builder) Or(rd, rs isa.Reg)        { b.Emit(isa.Instr{Op: isa.OpOr, RD: rd, RS1: rs}) }
func (b *Builder) OrI(rd isa.Reg, i int32)  { b.Emit(isa.Instr{Op: isa.OpOrI, RD: rd, Imm: i}) }
func (b *Builder) Xor(rd, rs isa.Reg)       { b.Emit(isa.Instr{Op: isa.OpXor, RD: rd, RS1: rs}) }
func (b *Builder) XorI(rd isa.Reg, i int32) { b.Emit(isa.Instr{Op: isa.OpXorI, RD: rd, Imm: i}) }
func (b *Builder) ShlI(rd isa.Reg, i int32) { b.Emit(isa.Instr{Op: isa.OpShlI, RD: rd, Imm: i}) }
func (b *Builder) ShrI(rd isa.Reg, i int32) { b.Emit(isa.Instr{Op: isa.OpShrI, RD: rd, Imm: i}) }
func (b *Builder) Mul(rd, rs isa.Reg)       { b.Emit(isa.Instr{Op: isa.OpMul, RD: rd, RS1: rs}) }
func (b *Builder) Div(rd, rs isa.Reg)       { b.Emit(isa.Instr{Op: isa.OpDiv, RD: rd, RS1: rs}) }

func (b *Builder) Cmp(r1, r2 isa.Reg)      { b.Emit(isa.Instr{Op: isa.OpCmp, RD: r1, RS1: r2}) }
func (b *Builder) CmpI(r isa.Reg, i int32) { b.Emit(isa.Instr{Op: isa.OpCmpI, RD: r, Imm: i}) }
func (b *Builder) Test(r1, r2 isa.Reg)     { b.Emit(isa.Instr{Op: isa.OpTest, RD: r1, RS1: r2}) }

func (b *Builder) FAdd(rd, rs isa.Reg) { b.Emit(isa.Instr{Op: isa.OpFAdd, RD: rd, RS1: rs}) }
func (b *Builder) FSub(rd, rs isa.Reg) { b.Emit(isa.Instr{Op: isa.OpFSub, RD: rd, RS1: rs}) }
func (b *Builder) FMul(rd, rs isa.Reg) { b.Emit(isa.Instr{Op: isa.OpFMul, RD: rd, RS1: rs}) }
func (b *Builder) FDiv(rd, rs isa.Reg) { b.Emit(isa.Instr{Op: isa.OpFDiv, RD: rd, RS1: rs}) }

func (b *Builder) Jmp(label string) { b.emitRef(isa.Instr{Op: isa.OpJmp}, label) }
func (b *Builder) Jcc(c isa.Cond, label string) {
	b.emitRef(isa.Instr{Op: isa.OpJcc, RD: isa.Reg(c)}, label)
}
func (b *Builder) Jrz(rs isa.Reg, label string) {
	b.emitRef(isa.Instr{Op: isa.OpJrz, RS1: rs}, label)
}
func (b *Builder) Call(label string) { b.emitRef(isa.Instr{Op: isa.OpCall}, label) }
func (b *Builder) Ret()              { b.Emit(isa.Instr{Op: isa.OpRet}) }
func (b *Builder) JmpR(rs isa.Reg)   { b.Emit(isa.Instr{Op: isa.OpJmpR, RS1: rs}) }
func (b *Builder) CallR(rs isa.Reg)  { b.Emit(isa.Instr{Op: isa.OpCallR, RS1: rs}) }

func (b *Builder) Cmov(c isa.Cond, rd, rs isa.Reg) {
	b.Emit(isa.Instr{Op: isa.OpCmov, RD: rd, RS1: rs, RS2: isa.Reg(c)})
}
func (b *Builder) Out(rs isa.Reg) { b.Emit(isa.Instr{Op: isa.OpOut, RS1: rs}) }

// MovLabel loads the address of a label into a register (for indirect
// branches through a register). The Imm is patched with the absolute
// address of the label rather than a relative offset.
func (b *Builder) MovLabel(rd isa.Reg, label string) {
	b.fixups = append(b.fixups, fixup{at: b.PC(), label: "=" + label})
	b.Emit(isa.Instr{Op: isa.OpMovRI, RD: rd})
}

// Build resolves all label references and returns a validated program.
func (b *Builder) Build() (*isa.Program, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	for _, fx := range b.fixups {
		label, absolute := fx.label, false
		if len(label) > 0 && label[0] == '=' {
			label, absolute = label[1:], true
		}
		target, ok := b.labels[label]
		if !ok {
			return nil, fmt.Errorf("%s: undefined label %q", b.name, label)
		}
		if absolute {
			b.code[fx.at].Imm = int32(target)
		} else {
			b.code[fx.at].Imm = isa.OffsetFor(fx.at, target)
		}
	}
	entry := uint32(1)
	if b.entry != "" {
		e, ok := b.labels[b.entry]
		if !ok {
			return nil, fmt.Errorf("%s: undefined entry label %q", b.name, b.entry)
		}
		entry = e
	}
	syms := make(map[uint32]string, len(b.labels))
	// Deterministic tie-break when two labels share an address.
	names := make([]string, 0, len(b.labels))
	for n := range b.labels {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, taken := syms[b.labels[n]]; !taken {
			syms[b.labels[n]] = n
		}
	}
	p := &isa.Program{
		Name:      b.name,
		Code:      b.code,
		Entry:     entry,
		DataWords: b.dataWords,
		Symbols:   syms,
		Target:    b.target,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
