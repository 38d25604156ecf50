package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOpStrings(t *testing.T) {
	seen := map[string]Op{}
	for op := Op(0); op.Valid(); op++ {
		s := op.String()
		if s == "" {
			t.Errorf("op %d has empty name", op)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("ops %d and %d share name %q", prev, op, s)
		}
		seen[s] = op
	}
	if got := Op(200).String(); got != "op(200)" {
		t.Errorf("invalid op name = %q", got)
	}
}

func TestOpClassification(t *testing.T) {
	branches := []Op{OpJmp, OpJcc, OpJrz, OpCall, OpRet, OpJmpR, OpCallR}
	for _, op := range branches {
		if !op.IsBranch() {
			t.Errorf("%s should be a branch", op)
		}
		if !op.IsTerminator() {
			t.Errorf("%s should be a terminator", op)
		}
	}
	direct := map[Op]bool{OpJmp: true, OpJcc: true, OpJrz: true, OpCall: true}
	for _, op := range branches {
		if op.IsDirectBranch() != direct[op] {
			t.Errorf("%s IsDirectBranch = %v, want %v", op, op.IsDirectBranch(), direct[op])
		}
	}
	for _, op := range []Op{OpAdd, OpMovRI, OpLoad, OpOut, OpNop} {
		if op.IsBranch() || op.IsTerminator() {
			t.Errorf("%s should not be a branch/terminator", op)
		}
	}
	if !OpHalt.IsTerminator() || OpHalt.IsBranch() {
		t.Error("halt should terminate but not branch")
	}
	if !OpJcc.IsConditional() || !OpJrz.IsConditional() || OpJmp.IsConditional() {
		t.Error("conditional classification wrong")
	}
	if !OpJcc.HasFallthrough() || !OpCall.HasFallthrough() || OpJmp.HasFallthrough() || OpRet.HasFallthrough() {
		t.Error("fallthrough classification wrong")
	}
}

func TestLeaDoesNotWriteFlags(t *testing.T) {
	// The paper replaces xor with lea specifically because lea leaves
	// EFLAGS untouched; the instrumentation relies on this.
	for _, op := range []Op{OpLea, OpLea3, OpMovRI, OpMovRR, OpCmov, OpJrz, OpLoad, OpStore, OpPush, OpPop, OpOut} {
		if op.WritesFlags() {
			t.Errorf("%s must not write flags", op)
		}
	}
	for _, op := range []Op{OpAdd, OpXor, OpCmp, OpCmpI, OpTest, OpSubI, OpDiv} {
		if !op.WritesFlags() {
			t.Errorf("%s must write flags", op)
		}
	}
	if !OpJcc.UsesFlags() || !OpCmov.UsesFlags() || OpJrz.UsesFlags() {
		t.Error("flags readers misclassified")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	ins := []Instr{
		{Op: OpNop},
		{Op: OpMovRI, RD: EAX, Imm: -12345},
		{Op: OpLea3, RD: R12, RS1: R13, RS2: EBX, Imm: 1 << 30},
		{Op: OpJcc, RD: Reg(CondLE), Imm: -1},
		{Op: OpStore, RS1: EBP, RS2: ESI, Imm: 4096},
		{Op: OpCmov, RD: R12, RS1: R14, RS2: Reg(CondGT)},
		{Op: OpHalt},
	}
	for _, in := range ins {
		got := Decode(in.Encode())
		if got != in {
			t.Errorf("round trip: got %+v, want %+v", got, in)
		}
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(op, rd, rs1, rs2 uint8, imm int32) bool {
		in := Instr{Op: Op(op), RD: Reg(rd), RS1: Reg(rs1), RS2: Reg(rs2), Imm: imm}
		return Decode(in.Encode()) == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeAnyBitsProperty(t *testing.T) {
	// Decode must accept any 8 bytes (hardware decoders do not fail), and
	// re-encoding must reproduce the same bytes: the encoding is a bijection.
	f := func(b [InstrBytes]byte) bool {
		return Decode(b).Encode() == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTargetOffsetInverse(t *testing.T) {
	f := func(ip uint32, off int32) bool {
		in := Instr{Op: OpJmp, Imm: off}
		tgt := in.Target(ip)
		return OffsetFor(ip, tgt) == off
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		in    Instr
		nregs int
		ok    bool
	}{
		{Instr{Op: OpNop}, NumGuestRegs, true},
		{Instr{Op: Op(250)}, NumRegs, false},
		{Instr{Op: OpMovRI, RD: R12}, NumGuestRegs, false},
		{Instr{Op: OpMovRI, RD: R12}, NumRegs, true},
		{Instr{Op: OpJcc, RD: Reg(CondAE), Imm: 5}, NumGuestRegs, true},
		{Instr{Op: OpJcc, RD: Reg(99)}, NumGuestRegs, false},
		{Instr{Op: OpCmov, RD: EAX, RS1: EBX, RS2: Reg(CondEQ)}, NumGuestRegs, true},
		{Instr{Op: OpCmov, RD: EAX, RS1: EBX, RS2: Reg(77)}, NumGuestRegs, false},
		{Instr{Op: OpStore, RS1: ESP, RS2: R9, Imm: 0}, NumGuestRegs, false},
		{Instr{Op: OpStore, RS1: ESP, RS2: R9, Imm: 0}, NumRegs, true},
		{Instr{Op: OpLea3, RD: R12, RS1: R12, RS2: R15}, NumRegs, true},
		{Instr{Op: OpJrz, RS1: ECX, Imm: 2}, NumGuestRegs, true},
		{Instr{Op: OpJmp, Imm: 1000}, NumGuestRegs, true},
		{Instr{Op: OpAdd, RD: EAX, RS1: EDI}, NumGuestRegs, true},
		{Instr{Op: OpAdd, RD: EAX, RS1: R8}, NumGuestRegs, false},
	}
	for i, c := range cases {
		err := c.in.Validate(c.nregs)
		if (err == nil) != c.ok {
			t.Errorf("case %d (%v, nregs=%d): err=%v, want ok=%v", i, c.in, c.nregs, err, c.ok)
		}
	}
}

func TestProgramImageRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	code := make([]Instr, 500)
	for i := range code {
		code[i] = Instr{
			Op:  Op(rng.Intn(NumOps)),
			RD:  Reg(rng.Intn(NumRegs)),
			RS1: Reg(rng.Intn(NumRegs)),
			RS2: Reg(rng.Intn(NumRegs)),
			Imm: int32(rng.Uint32()),
		}
	}
	img := EncodeProgram(code)
	if len(img) != len(code)*InstrBytes {
		t.Fatalf("image size = %d, want %d", len(img), len(code)*InstrBytes)
	}
	back, err := DecodeProgram(img)
	if err != nil {
		t.Fatal(err)
	}
	for i := range code {
		if back[i] != code[i] {
			t.Fatalf("instr %d: got %+v, want %+v", i, back[i], code[i])
		}
	}
	if _, err := DecodeProgram(img[:len(img)-3]); err == nil {
		t.Error("truncated image should fail to decode")
	}
}

func TestInstrStrings(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpMovRI, RD: EAX, Imm: 42}, "movi eax, 42"},
		{Instr{Op: OpLea, RD: R12, RS1: R12, Imm: -7}, "lea r12, [r12-7]"},
		{Instr{Op: OpJcc, RD: Reg(CondLE), Imm: 3}, "jle +3"},
		{Instr{Op: OpJrz, RS1: R12, Imm: 1}, "jrz r12, +1"},
		{Instr{Op: OpCmov, RD: R12, RS1: R14, RS2: Reg(CondGT)}, "cmovgt r12, r14"},
		{Instr{Op: OpStore, RS1: ESP, RS2: EAX, Imm: 2}, "store [esp+2], eax"},
		{Instr{Op: OpRet}, "ret"},
		{Instr{Op: OpHalt}, "halt"},
		{Instr{Op: OpReport}, "report"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.in, got, c.want)
		}
	}
}

// Validate names the register field that is out of range.
func TestValidateNamesField(t *testing.T) {
	for _, c := range []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpAdd, RD: 17, RS1: EAX}, "add: rd register 17 out of range (machine has 8)"},
		{Instr{Op: OpAdd, RD: EAX, RS1: 17}, "add: rs1 register 17 out of range (machine has 8)"},
		{Instr{Op: OpStore, RS1: ESP, RS2: 17}, "store: rs2 register 17 out of range (machine has 8)"},
	} {
		err := c.in.Validate(NumGuestRegs)
		if err == nil || err.Error() != c.want {
			t.Errorf("%v: err = %v, want %q", c.in, err, c.want)
		}
	}
}

// Program.Validate's scan passes a word only if Instr.Validate accepts
// it and it neither branches directly, nor carries a condition code, nor
// is a pseudo-op, and passes every such word, for both register files: over every opcode byte with
// random register fields, and over every register value of each field.
func TestPlainWordsMatchesValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	check := func(in Instr, nregs int) {
		t.Helper()
		u := operandsOf(in.Op)
		want := in.Validate(nregs) == nil && u&(directBranch|condRD|condRS2|pseudoOp) == 0
		if got := plainWords([]Instr{in}, nregs) == 1; got != want {
			t.Fatalf("%v (op %d), nregs %d: scan passes it %v, want %v", in, in.Op, nregs, got, want)
		}
	}
	for _, nregs := range []int{NumGuestRegs, NumRegs} {
		for op := 0; op < 256; op++ {
			for i := 0; i < 64; i++ {
				check(Instr{Op: Op(op), RD: Reg(rng.Intn(24)), RS1: Reg(rng.Intn(24)), RS2: Reg(rng.Intn(24))}, nregs)
			}
			for r := 0; r < 256; r++ {
				check(Instr{Op: Op(op), RD: Reg(r)}, nregs)
				check(Instr{Op: Op(op), RS1: Reg(r)}, nregs)
				check(Instr{Op: Op(op), RS2: Reg(r)}, nregs)
			}
		}
	}
	if n := plainWords([]Instr{{Op: OpNop}}, 12); n != 0 {
		t.Errorf("a register count that is not a power of two passed %d words to the scan", n)
	}
}
