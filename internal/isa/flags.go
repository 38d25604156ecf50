package isa

import "strings"

// Flags is the condition-flags register. It mirrors the subset of IA32
// EFLAGS that determines conditional branch direction: the paper's error
// model flips single bits "in the flags that determine the conditional
// branches direction", which on IA32 are CF, PF, ZF, SF and OF.
type Flags uint8

// Individual flag bits.
const (
	FlagC Flags = 1 << iota // carry (unsigned below)
	FlagP                   // parity of low result byte
	FlagZ                   // zero
	FlagS                   // sign
	FlagO                   // signed overflow
)

// NumFlagBits is the number of architecturally visible flag bits. The error
// model assigns one fault site per flag bit per executed conditional branch.
const NumFlagBits = 5

// FlagMask covers all defined flag bits.
const FlagMask Flags = FlagC | FlagP | FlagZ | FlagS | FlagO

// String renders the set flags, e.g. "ZP" or "-" when empty.
func (f Flags) String() string {
	var b strings.Builder
	for _, fb := range [...]struct {
		bit Flags
		ch  byte
	}{{FlagO, 'O'}, {FlagS, 'S'}, {FlagZ, 'Z'}, {FlagP, 'P'}, {FlagC, 'C'}} {
		if f&fb.bit != 0 {
			b.WriteByte(fb.ch)
		}
	}
	if b.Len() == 0 {
		return "-"
	}
	return b.String()
}

// SubFlags computes the flags produced by the comparison a - b, with IA32
// semantics for Z, S, O (signed overflow of the subtraction), C (unsigned
// borrow) and P (parity of the low 8 bits of the result).
func SubFlags(a, b int32) Flags {
	r := a - b
	var f Flags
	if r == 0 {
		f |= FlagZ
	}
	if r < 0 {
		f |= FlagS
	}
	// Signed overflow: operands have different signs and the result's sign
	// differs from the minuend's.
	if (a < 0) != (b < 0) && (r < 0) != (a < 0) {
		f |= FlagO
	}
	if uint32(a) < uint32(b) {
		f |= FlagC
	}
	f |= parity(uint8(r))
	return f
}

// LogicFlags computes the flags produced by a logical result r: C and O are
// cleared, Z/S/P follow the result, matching IA32 and/or/xor/test semantics.
func LogicFlags(r int32) Flags {
	var f Flags
	if r == 0 {
		f |= FlagZ
	}
	if r < 0 {
		f |= FlagS
	}
	f |= parity(uint8(r))
	return f
}

// AddFlags computes the flags produced by a + b.
func AddFlags(a, b int32) Flags {
	r := a + b
	var f Flags
	if r == 0 {
		f |= FlagZ
	}
	if r < 0 {
		f |= FlagS
	}
	if (a < 0) == (b < 0) && (r < 0) != (a < 0) {
		f |= FlagO
	}
	if uint32(r) < uint32(a) {
		f |= FlagC
	}
	f |= parity(uint8(r))
	return f
}

func parity(b uint8) Flags {
	// IA32 PF is set when the low byte has an even number of set bits.
	b ^= b >> 4
	b ^= b >> 2
	b ^= b >> 1
	if b&1 == 0 {
		return FlagP
	}
	return 0
}

// Cond is a condition code for Jcc and CMOVcc, stored in the instruction's
// byte-1 field.
type Cond uint8

// Condition codes with IA32 meanings over the Flags register.
const (
	CondEQ Cond = iota // ZF
	CondNE             // !ZF
	CondLT             // SF != OF (signed <)
	CondLE             // ZF || SF != OF
	CondGT             // !ZF && SF == OF
	CondGE             // SF == OF
	CondB              // CF (unsigned <)
	CondBE             // CF || ZF
	CondA              // !CF && !ZF
	CondAE             // !CF
	CondS              // SF
	CondNS             // !SF
	CondP              // PF
	CondNP             // !PF
	CondO              // OF
	CondNO             // !OF

	condCount
)

var condNames = [...]string{
	CondEQ: "eq", CondNE: "ne", CondLT: "lt", CondLE: "le",
	CondGT: "gt", CondGE: "ge", CondB: "b", CondBE: "be",
	CondA: "a", CondAE: "ae", CondS: "s", CondNS: "ns",
	CondP: "p", CondNP: "np", CondO: "o", CondNO: "no",
}

// String returns the condition mnemonic suffix.
func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return "??"
}

// Valid reports whether c is a defined condition code.
func (c Cond) Valid() bool { return c < condCount }

// Negate returns the complementary condition, such that for all flags f,
// c.Eval(f) == !c.Negate().Eval(f).
func (c Cond) Negate() Cond {
	// Conditions are laid out so most pairs are adjacent; handle explicitly
	// for clarity and safety.
	switch c {
	case CondEQ:
		return CondNE
	case CondNE:
		return CondEQ
	case CondLT:
		return CondGE
	case CondGE:
		return CondLT
	case CondLE:
		return CondGT
	case CondGT:
		return CondLE
	case CondB:
		return CondAE
	case CondAE:
		return CondB
	case CondBE:
		return CondA
	case CondA:
		return CondBE
	case CondS:
		return CondNS
	case CondNS:
		return CondS
	case CondP:
		return CondNP
	case CondNP:
		return CondP
	case CondO:
		return CondNO
	case CondNO:
		return CondO
	}
	return c
}

// Eval evaluates the condition against a flags value.
func (c Cond) Eval(f Flags) bool {
	zf := f&FlagZ != 0
	sf := f&FlagS != 0
	of := f&FlagO != 0
	cf := f&FlagC != 0
	pf := f&FlagP != 0
	switch c {
	case CondEQ:
		return zf
	case CondNE:
		return !zf
	case CondLT:
		return sf != of
	case CondLE:
		return zf || sf != of
	case CondGT:
		return !zf && sf == of
	case CondGE:
		return sf == of
	case CondB:
		return cf
	case CondBE:
		return cf || zf
	case CondA:
		return !cf && !zf
	case CondAE:
		return !cf
	case CondS:
		return sf
	case CondNS:
		return !sf
	case CondP:
		return pf
	case CondNP:
		return !pf
	case CondO:
		return of
	case CondNO:
		return !of
	}
	return false
}
