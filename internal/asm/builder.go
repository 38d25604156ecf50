// Package asm provides two front ends for producing guest programs: a
// programmatic Builder with symbolic labels (used by the workload
// generators and the static instrumenters) and a textual assembler (used
// by the cfc-asm tool and the examples). Both resolve labels to relative
// branch offsets and produce validated isa.Program values.
package asm

import (
	"fmt"
	"strconv"

	"repro/internal/isa"
)

// Label is a label of one Builder: branch emitters take it, Bind defines
// it. Named and Numbered make labels.
type Label uint32

// labelDef is one label: its name (or the prefix of a numbered name), the
// address it is bound to, and whether it names that address in the
// symbol table.
type labelDef struct {
	name string
	n    uint32
	base uint8 // 0: the name is name; else name, "_" and n in this base
	// shadowed marks a label bound where a smaller-named one is too: the
	// symbol table names each address by its smallest label.
	shadowed bool
	addr     uint32 // 0 until bound: address 0 is never code
	end      uint32 // Build's scratch: the name's end in the symbol text
}

type fixup struct {
	at       uint32 // instruction index whose Imm needs patching
	label    Label
	absolute bool // Imm takes the label's address, not a relative offset
}

// Builder incrementally constructs a program, resolving forward label
// references at Build time. A Builder builds one program. The zero value
// is not usable; call NewBuilder.
type Builder struct {
	name      string
	code      []isa.Instr
	labels    []labelDef // indexed by Label; 0 is no label
	named     map[string]Label
	fixups    []fixup
	lastBound Label // the label that names the most recently bound address
	dataWords uint32
	entry     Label
	target    bool
	errs      []error
}

// NewBuilder returns a Builder for a program with the given name. Code
// is laid out from address 1: address 0, the null page, holds isa.NullPad.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, code: []isa.Instr{isa.NullPad}, labels: make([]labelDef, 1)}
}

// Grow makes room for words more instructions and labels more labels, so
// that a producer that knows its size emits without reallocating. Build
// hands out code without spare capacity, so a bound that is exact also
// saves Build's copy.
func (b *Builder) Grow(words, labels int) {
	if words > cap(b.code)-len(b.code) {
		code := make([]isa.Instr, len(b.code), len(b.code)+words)
		copy(code, b.code)
		b.code = code
	}
	if labels > cap(b.labels)-len(b.labels) {
		defs := make([]labelDef, len(b.labels), len(b.labels)+labels)
		copy(defs, b.labels)
		b.labels = defs
	}
}

// PC returns the address of the next instruction to be emitted.
func (b *Builder) PC() uint32 { return uint32(len(b.code)) }

// SetDataWords sets the size of the data segment in words.
func (b *Builder) SetDataWords(n uint32) { b.dataWords = n }

// SetEntry makes the given label the program entry point. By default the
// entry is the first instruction emitted, at address 1.
func (b *Builder) SetEntry(l Label) { b.entry = l }

// SetTarget marks the program as target-ISA (16 registers, pseudo-ops
// allowed), the output format of static instrumentation.
func (b *Builder) SetTarget() { b.target = true }

// Named returns the label called name, making it on first use. The text
// assembler names every label this way.
func (b *Builder) Named(name string) Label {
	if l, ok := b.named[name]; ok {
		return l
	}
	if b.named == nil {
		b.named = make(map[string]Label)
	}
	l := b.newLabel(labelDef{name: name})
	b.named[name] = l
	return l
}

// Numbered returns a new label called prefix, "_" and n in the given
// base (10 or 16). The name is formatted only if Build needs it, and
// Named does not find the label: generators that number their labels
// keep the Label.
func (b *Builder) Numbered(prefix string, n uint32, base int) Label {
	return b.newLabel(labelDef{name: prefix, n: n, base: uint8(base)})
}

func (b *Builder) newLabel(d labelDef) Label {
	b.labels = append(b.labels, d)
	return Label(len(b.labels) - 1)
}

// appendName appends a label's name to dst.
func (d *labelDef) appendName(dst []byte) []byte {
	dst = append(dst, d.name...)
	if d.base != 0 {
		dst = append(dst, '_')
		dst = strconv.AppendUint(dst, uint64(d.n), int(d.base))
	}
	return dst
}

// nameOf returns a label's name.
func (b *Builder) nameOf(l Label) string {
	if d := &b.labels[l]; d.base != 0 {
		return string(d.appendName(nil))
	}
	return b.labels[l].name
}

// Bind defines a label at the current PC.
func (b *Builder) Bind(l Label) {
	d := &b.labels[l]
	if d.addr != 0 {
		b.errs = append(b.errs, fmt.Errorf("label %q redefined", b.nameOf(l)))
		return
	}
	pc := b.PC()
	d.addr = pc
	// Labels are bound in address order, so the labels of one address are
	// bound one after another: the smallest name seen so far names it.
	if prev := b.lastBound; prev != 0 && b.labels[prev].addr == pc {
		if b.nameOf(l) < b.nameOf(prev) {
			b.labels[prev].shadowed = true
		} else {
			d.shadowed = true
			return
		}
	}
	b.lastBound = l
}

// Emit appends raw instructions.
func (b *Builder) Emit(code ...isa.Instr) { b.code = append(b.code, code...) }

// emit appends one instruction, storing its fields one by one: an
// isa.Instr built in a temporary and copied whole costs a stalled load
// (the word is read back at once after narrower stores), about a fifth
// of generating a workload.
func (b *Builder) emit(op isa.Op, rd, rs1, rs2 isa.Reg, imm int32) {
	n := len(b.code)
	if n == cap(b.code) {
		b.code = append(b.code, isa.Instr{})
	} else {
		b.code = b.code[:n+1]
	}
	in := &b.code[n]
	in.Op, in.RD, in.RS1, in.RS2, in.Imm = op, rd, rs1, rs2, imm
}

// emitRef appends a branch (or, absolute, a movi) whose Imm reaches l: a
// bound label's now, a forward label's at Build.
func (b *Builder) emitRef(op isa.Op, rd, rs1 isa.Reg, l Label, absolute bool) {
	pc := b.PC()
	imm := int32(0)
	if target := b.labels[l].addr; target != 0 {
		imm = refImm(pc, target, absolute)
	} else {
		b.fixups = append(b.fixups, fixup{at: pc, label: l, absolute: absolute})
	}
	b.emit(op, rd, rs1, 0, imm)
}

// refImm is the Imm that makes the instruction at pc reach target.
func refImm(pc, target uint32, absolute bool) int32 {
	if absolute {
		return int32(target)
	}
	return isa.OffsetFor(pc, target)
}

// Convenience emitters. Naming follows the assembler mnemonics.

func (b *Builder) Nop()  { b.emit(isa.OpNop, 0, 0, 0, 0) }
func (b *Builder) Halt() { b.emit(isa.OpHalt, 0, 0, 0, 0) }

func (b *Builder) MovI(rd isa.Reg, imm int32)                { b.emit(isa.OpMovRI, rd, 0, 0, imm) }
func (b *Builder) Mov(rd, rs isa.Reg)                        { b.emit(isa.OpMovRR, rd, rs, 0, 0) }
func (b *Builder) Lea(rd, rs isa.Reg, imm int32)             { b.emit(isa.OpLea, rd, rs, 0, imm) }
func (b *Builder) Load(rd, base isa.Reg, off int32)          { b.emit(isa.OpLoad, rd, base, 0, off) }
func (b *Builder) Store(base isa.Reg, off int32, rs isa.Reg) { b.emit(isa.OpStore, 0, base, rs, off) }
func (b *Builder) Push(rs isa.Reg)                           { b.emit(isa.OpPush, 0, rs, 0, 0) }
func (b *Builder) Pop(rd isa.Reg)                            { b.emit(isa.OpPop, rd, 0, 0, 0) }

func (b *Builder) Add(rd, rs isa.Reg)       { b.emit(isa.OpAdd, rd, rs, 0, 0) }
func (b *Builder) AddI(rd isa.Reg, i int32) { b.emit(isa.OpAddI, rd, 0, 0, i) }
func (b *Builder) Sub(rd, rs isa.Reg)       { b.emit(isa.OpSub, rd, rs, 0, 0) }
func (b *Builder) SubI(rd isa.Reg, i int32) { b.emit(isa.OpSubI, rd, 0, 0, i) }
func (b *Builder) And(rd, rs isa.Reg)       { b.emit(isa.OpAnd, rd, rs, 0, 0) }
func (b *Builder) AndI(rd isa.Reg, i int32) { b.emit(isa.OpAndI, rd, 0, 0, i) }
func (b *Builder) Or(rd, rs isa.Reg)        { b.emit(isa.OpOr, rd, rs, 0, 0) }
func (b *Builder) OrI(rd isa.Reg, i int32)  { b.emit(isa.OpOrI, rd, 0, 0, i) }
func (b *Builder) Xor(rd, rs isa.Reg)       { b.emit(isa.OpXor, rd, rs, 0, 0) }
func (b *Builder) XorI(rd isa.Reg, i int32) { b.emit(isa.OpXorI, rd, 0, 0, i) }
func (b *Builder) ShlI(rd isa.Reg, i int32) { b.emit(isa.OpShlI, rd, 0, 0, i) }
func (b *Builder) ShrI(rd isa.Reg, i int32) { b.emit(isa.OpShrI, rd, 0, 0, i) }
func (b *Builder) Mul(rd, rs isa.Reg)       { b.emit(isa.OpMul, rd, rs, 0, 0) }
func (b *Builder) Div(rd, rs isa.Reg)       { b.emit(isa.OpDiv, rd, rs, 0, 0) }

func (b *Builder) Cmp(r1, r2 isa.Reg)      { b.emit(isa.OpCmp, r1, r2, 0, 0) }
func (b *Builder) CmpI(r isa.Reg, i int32) { b.emit(isa.OpCmpI, r, 0, 0, i) }
func (b *Builder) Test(r1, r2 isa.Reg)     { b.emit(isa.OpTest, r1, r2, 0, 0) }

func (b *Builder) FAdd(rd, rs isa.Reg) { b.emit(isa.OpFAdd, rd, rs, 0, 0) }
func (b *Builder) FSub(rd, rs isa.Reg) { b.emit(isa.OpFSub, rd, rs, 0, 0) }
func (b *Builder) FMul(rd, rs isa.Reg) { b.emit(isa.OpFMul, rd, rs, 0, 0) }
func (b *Builder) FDiv(rd, rs isa.Reg) { b.emit(isa.OpFDiv, rd, rs, 0, 0) }

func (b *Builder) Jmp(l Label)             { b.emitRef(isa.OpJmp, 0, 0, l, false) }
func (b *Builder) Jcc(c isa.Cond, l Label) { b.emitRef(isa.OpJcc, isa.Reg(c), 0, l, false) }
func (b *Builder) Jrz(rs isa.Reg, l Label) { b.emitRef(isa.OpJrz, 0, rs, l, false) }
func (b *Builder) Call(l Label)            { b.emitRef(isa.OpCall, 0, 0, l, false) }
func (b *Builder) Ret()                    { b.emit(isa.OpRet, 0, 0, 0, 0) }
func (b *Builder) JmpR(rs isa.Reg)         { b.emit(isa.OpJmpR, 0, rs, 0, 0) }
func (b *Builder) CallR(rs isa.Reg)        { b.emit(isa.OpCallR, 0, rs, 0, 0) }

func (b *Builder) Cmov(c isa.Cond, rd, rs isa.Reg) { b.emit(isa.OpCmov, rd, rs, isa.Reg(c), 0) }
func (b *Builder) Out(rs isa.Reg)                  { b.emit(isa.OpOut, 0, rs, 0, 0) }

// MovLabel loads the address of a label into a register (for indirect
// branches through a register). The Imm is patched with the absolute
// address of the label rather than a relative offset.
func (b *Builder) MovLabel(rd isa.Reg, l Label) { b.emitRef(isa.OpMovRI, rd, 0, l, true) }

// Build resolves all label references and returns a validated program.
func (b *Builder) Build() (*isa.Program, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	for _, fx := range b.fixups {
		target := b.labels[fx.label].addr
		if target == 0 {
			return nil, fmt.Errorf("%s: undefined label %q", b.name, b.nameOf(fx.label))
		}
		b.code[fx.at].Imm = refImm(fx.at, target, fx.absolute)
	}
	entry := uint32(1)
	if b.entry != 0 {
		if entry = b.labels[b.entry].addr; entry == 0 {
			return nil, fmt.Errorf("%s: undefined entry label %q", b.name, b.nameOf(b.entry))
		}
	}
	// Programs live as long as the sessions that run them: hand out an
	// exact-size slice, copying the code out of any spare capacity.
	code := b.code
	if cap(code) != len(code) {
		code = make([]isa.Instr, len(b.code))
		copy(code, b.code)
	}
	p := &isa.Program{
		Name:      b.name,
		Code:      code,
		Entry:     entry,
		DataWords: b.dataWords,
		Symbols:   b.symbols(),
		Target:    b.target,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// symbols maps each labelled address to its smallest label. Numbered
// names are formatted into one string that the table's names share.
func (b *Builder) symbols() map[uint32]string {
	n := 0
	var text []byte
	for i := 1; i < len(b.labels); i++ {
		d := &b.labels[i]
		if d.addr == 0 || d.shadowed {
			continue
		}
		n++
		if d.base != 0 {
			if text == nil {
				text = make([]byte, 0, 12*len(b.labels))
			}
			text = d.appendName(text)
			d.end = uint32(len(text))
		}
	}
	all := string(text)
	syms := make(map[uint32]string, n)
	start := uint32(0)
	for i := 1; i < len(b.labels); i++ {
		d := &b.labels[i]
		if d.addr == 0 || d.shadowed {
			continue
		}
		if d.base == 0 {
			syms[d.addr] = d.name
			continue
		}
		syms[d.addr] = all[start:d.end]
		start = d.end
	}
	return syms
}
