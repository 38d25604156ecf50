package isa

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// InstrBytes is the size in bytes of one encoded instruction.
const InstrBytes = 8

// OffsetBits is the width of the branch-offset immediate. The paper's error
// model enumerates one fault site per offset bit per executed direct branch.
const OffsetBits = 32

// Instr is one decoded instruction.
//
// Field usage by opcode family:
//
//	Jcc:   RD holds the condition code (as Cond); Imm is the branch offset.
//	Cmov:  RD = destination, RS1 = source, RS2 holds the condition code.
//	Jrz:   RS1 is the tested register; Imm is the branch offset.
//	Store: mem[RS1+Imm] = RS2.
//	Lea3:  RD = RS1 + RS2 + Imm.
//
// Branch offsets are relative to the following instruction, in instruction
// words: target = ip + 1 + Imm.
type Instr struct {
	Op  Op
	RD  Reg
	RS1 Reg
	RS2 Reg
	Imm int32
}

// Cond returns the condition code of a Jcc instruction.
func (in Instr) Cond() Cond { return Cond(in.RD) }

// CmovCond returns the condition code of a Cmov instruction.
func (in Instr) CmovCond() Cond { return Cond(in.RS2) }

// Target returns the absolute branch target of a direct branch located at
// address ip (in instruction words).
func (in Instr) Target(ip uint32) uint32 { return ip + 1 + uint32(in.Imm) }

// OffsetFor returns the Imm value that makes an instruction at ip branch to
// target.
func OffsetFor(ip, target uint32) int32 { return int32(target - ip - 1) }

// Encode serializes the instruction into its 8-byte form.
func (in Instr) Encode() [InstrBytes]byte {
	var b [InstrBytes]byte
	in.put(b[:])
	return b
}

// put writes the instruction's 8-byte form into b.
func (in *Instr) put(b []byte) {
	b[0], b[1], b[2], b[3] = byte(in.Op), byte(in.RD), byte(in.RS1), byte(in.RS2)
	binary.LittleEndian.PutUint32(b[4:InstrBytes], uint32(in.Imm))
}

// Decode deserializes an instruction from its 8-byte form. Decode never
// fails: like a hardware decoder it produces some instruction for any bit
// pattern; Validate reports whether it is architecturally well formed.
func Decode(b [InstrBytes]byte) Instr {
	return Instr{
		Op:  Op(b[0]),
		RD:  Reg(b[1]),
		RS1: Reg(b[2]),
		RS2: Reg(b[3]),
		Imm: int32(binary.LittleEndian.Uint32(b[4:])),
	}
}

// operands records how an opcode reads an instruction's fields.
type operands uint8

const (
	opDefined    operands = 1 << iota
	useRD                 // RD is a register
	useRS1                // RS1 is a register
	useRS2                // RS2 is a register
	condRD                // RD holds a Cond (jcc)
	condRS2               // RS2 holds a Cond (cmov)
	directBranch          // Imm is a branch offset
	pseudoOp              // never in a guest binary
)

// operandsOf returns how op reads an instruction's fields; 0 for an
// undefined opcode.
func operandsOf(op Op) operands {
	if !op.Valid() {
		return 0
	}
	switch op {
	case OpNop, OpHalt, OpRet, OpPushF, OpPopF:
		return opDefined
	case OpReport, OpTrapOut:
		return opDefined | pseudoOp
	case OpJmp, OpCall:
		return opDefined | directBranch
	case OpJcc:
		return opDefined | condRD | directBranch
	case OpJrz:
		return opDefined | useRS1 | directBranch
	case OpCmov:
		return opDefined | condRS2 | useRD | useRS1
	case OpStore:
		return opDefined | useRS1 | useRS2
	case OpLea3, OpXor3:
		return opDefined | useRD | useRS1 | useRS2
	case OpMovRI, OpPop, OpAddI, OpSubI, OpAndI, OpOrI, OpXorI, OpShlI, OpShrI, OpCmpI:
		return opDefined | useRD
	case OpPush, OpJmpR, OpCallR, OpOut:
		return opDefined | useRS1
	}
	// Two-register forms: rd and rs1.
	return opDefined | useRD | useRS1
}

// scanMask holds, for each opcode byte, 0xff in the bytes of an
// instruction's first four (op, rd, rs1, rs2) that Program.Validate's
// scan checks against the register count: the register fields the
// opcode reads, and the opcode byte itself for opcodes the scan leaves
// to Validate (undefined ones, direct branches, condition codes and
// pseudo-ops). No such opcode is 0, so its own byte always trips the
// scan.
var scanMask = func() (t [256]uint32) {
	for op := range t {
		u := operandsOf(Op(op))
		if u == 0 || u&(directBranch|condRD|condRS2|pseudoOp) != 0 {
			if op == 0 {
				panic("isa: opcode 0 must be plain")
			}
			t[op] = 0xff
		}
		for i, use := range [...]operands{useRD, useRS1, useRS2} {
			if u&use != 0 {
				t[op] |= 0xff << (8 * (i + 1))
			}
		}
	}
	return t
}()

// plainWords returns how many words at the start of code use only
// registers below nregs and neither branch directly, nor carry a
// condition code, nor are pseudo-ops or undefined: the words Validate
// has nothing to say about. It takes no branch on a word's opcode.
// nregs must be a power of two (both register files are); for any other
// count it returns 0 and leaves every word to Validate.
func plainWords(code []Instr, nregs int) int {
	if nregs <= 0 || nregs > 256 || nregs&(nregs-1) != 0 {
		return 0
	}
	// A register field is at or above nregs exactly when it has a bit
	// above nregs-1.
	limit := 0xff | uint32(^uint8(nregs-1))*0x01010100
	for i := range code {
		in := &code[i]
		w := uint32(in.Op) | uint32(in.RD)<<8 | uint32(in.RS1)<<16 | uint32(in.RS2)<<24
		if w&scanMask[in.Op]&limit != 0 {
			return i
		}
	}
	return len(code)
}

// Validate reports whether the instruction is architecturally well formed
// for a machine with nregs registers (pass NumGuestRegs for guest binaries,
// NumRegs for translated code). The error names the field at fault.
func (in Instr) Validate(nregs int) error {
	u := operandsOf(in.Op)
	if u == 0 {
		return fmt.Errorf("invalid opcode %d", uint8(in.Op))
	}
	if u&condRD != 0 && !Cond(in.RD).Valid() {
		return fmt.Errorf("%s: invalid condition %d", in.Op, uint8(in.RD))
	}
	if u&condRS2 != 0 && !Cond(in.RS2).Valid() {
		return fmt.Errorf("%s: invalid condition %d", in.Op, uint8(in.RS2))
	}
	for _, f := range [...]struct {
		use  operands
		name string
		r    Reg
	}{{useRD, "rd", in.RD}, {useRS1, "rs1", in.RS1}, {useRS2, "rs2", in.RS2}} {
		if u&f.use != 0 && int(f.r) >= nregs {
			return fmt.Errorf("%s: %s register %d out of range (machine has %d)", in.Op, f.name, uint8(f.r), nregs)
		}
	}
	return nil
}

// String renders the instruction in assembler syntax.
func (in Instr) String() string {
	switch in.Op {
	case OpNop, OpHalt, OpRet, OpReport, OpTrapOut, OpPushF, OpPopF:
		return in.Op.String()
	case OpMovRI:
		return fmt.Sprintf("movi %s, %d", in.RD, in.Imm)
	case OpMovRR:
		return fmt.Sprintf("mov %s, %s", in.RD, in.RS1)
	case OpLea:
		return fmt.Sprintf("lea %s, [%s%+d]", in.RD, in.RS1, in.Imm)
	case OpLea3:
		return fmt.Sprintf("lea3 %s, [%s+%s%+d]", in.RD, in.RS1, in.RS2, in.Imm)
	case OpXor3:
		return fmt.Sprintf("xor3 %s, %s, %s, %d", in.RD, in.RS1, in.RS2, in.Imm)
	case OpLoad:
		return fmt.Sprintf("load %s, [%s%+d]", in.RD, in.RS1, in.Imm)
	case OpStore:
		return fmt.Sprintf("store [%s%+d], %s", in.RS1, in.Imm, in.RS2)
	case OpPush:
		return fmt.Sprintf("push %s", in.RS1)
	case OpPop:
		return fmt.Sprintf("pop %s", in.RD)
	case OpAddI, OpSubI, OpAndI, OpOrI, OpXorI, OpShlI, OpShrI, OpCmpI:
		return fmt.Sprintf("%s %s, %d", in.Op, in.RD, in.Imm)
	case OpJmp, OpCall:
		return fmt.Sprintf("%s %+d", in.Op, in.Imm)
	case OpJcc:
		return fmt.Sprintf("j%s %+d", in.Cond(), in.Imm)
	case OpJrz:
		return fmt.Sprintf("jrz %s, %+d", in.RS1, in.Imm)
	case OpJmpR:
		return fmt.Sprintf("jmpr %s", in.RS1)
	case OpCallR:
		return fmt.Sprintf("callr %s", in.RS1)
	case OpCmov:
		return fmt.Sprintf("cmov%s %s, %s", in.CmovCond(), in.RD, in.RS1)
	case OpOut:
		return fmt.Sprintf("out %s", in.RS1)
	default:
		return fmt.Sprintf("%s %s, %s", in.Op, in.RD, in.RS1)
	}
}

// EncodeProgram serializes a sequence of instructions into a flat binary
// image, the "existing binary" format the DBT consumes.
func EncodeProgram(code []Instr) []byte {
	return AppendProgram(make([]byte, 0, len(code)*InstrBytes), code)
}

// AppendProgram appends the binary image of code to dst. It writes each
// word in place rather than through Encode's array, whose copy reloads
// bytes just stored.
func AppendProgram(dst []byte, code []Instr) []byte {
	n := len(dst)
	dst = slices.Grow(dst, len(code)*InstrBytes)[:n+len(code)*InstrBytes]
	for i := range code {
		code[i].put(dst[n+i*InstrBytes : n+(i+1)*InstrBytes])
	}
	return dst
}

// DecodeProgram deserializes a flat binary image into instructions.
func DecodeProgram(image []byte) ([]Instr, error) {
	if len(image)%InstrBytes != 0 {
		return nil, fmt.Errorf("image size %d is not a multiple of %d", len(image), InstrBytes)
	}
	code := make([]Instr, len(image)/InstrBytes)
	for i := range code {
		var b [InstrBytes]byte
		copy(b[:], image[i*InstrBytes:])
		code[i] = Decode(b)
	}
	return code, nil
}
