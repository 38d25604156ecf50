package asm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/isa"
)

// Assemble parses assembly text into a program laid out from address 1
// (see NewBuilder). The syntax is line based:
//
//	; comment
//	.data 1024        ; data segment size in words
//	.entry main       ; entry label (default: the first instruction)
//	main:             ; label definition
//	    movi eax, 10
//	loop:
//	    subi eax, 1
//	    jgt loop      ; conditional jump: j + condition mnemonic
//	    store [esp-1], eax
//	    movi ebx, =loop  ; label address as immediate
//	    halt
func Assemble(name, src string) (*isa.Program, error) {
	b, err := parse(name, src)
	if err != nil {
		return nil, err
	}
	return b.Build()
}

// parse emits the statements of src into a new Builder, one word at most
// per line.
func parse(name, src string) (*Builder, error) {
	lines := strings.Split(src, "\n")
	b := NewBuilder(name)
	b.Grow(len(lines), 0)
	for lineNo, raw := range lines {
		line := raw
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Possibly "label: instr".
		for {
			i := strings.IndexByte(line, ':')
			if i < 0 {
				break
			}
			label := strings.TrimSpace(line[:i])
			if !isIdent(label) {
				return nil, fmt.Errorf("%s:%d: bad label %q", name, lineNo+1, label)
			}
			b.Bind(b.Named(label))
			line = strings.TrimSpace(line[i+1:])
		}
		if line == "" {
			continue
		}
		if err := parseStatement(b, line); err != nil {
			return nil, fmt.Errorf("%s:%d: %v", name, lineNo+1, err)
		}
	}
	return b, nil
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '.':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func parseStatement(b *Builder, line string) error {
	mnemonic := line
	rest := ""
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		mnemonic, rest = line[:i], strings.TrimSpace(line[i+1:])
	}
	mnemonic = strings.ToLower(mnemonic)
	args := splitArgs(rest)

	switch mnemonic {
	case ".data":
		n, err := wantInt(args, 0, 1)
		if err != nil {
			return err
		}
		if n < 0 {
			return fmt.Errorf(".data size must be non-negative")
		}
		b.SetDataWords(uint32(n))
		return nil
	case ".entry":
		if len(args) != 1 || !isIdent(args[0]) {
			return fmt.Errorf(".entry wants one label")
		}
		b.SetEntry(b.Named(args[0]))
		return nil
	}

	// Conditional jump/cmov mnemonics: j<cond>, cmov<cond>.
	if strings.HasPrefix(mnemonic, "j") && mnemonic != "jmp" && mnemonic != "jrz" && mnemonic != "jmpr" {
		if c, ok := condByName(mnemonic[1:]); ok {
			lbl, err := wantLabel(args, 0, 1)
			if err != nil {
				return err
			}
			b.Jcc(c, b.Named(lbl))
			return nil
		}
		return fmt.Errorf("unknown condition in %q", mnemonic)
	}
	if strings.HasPrefix(mnemonic, "cmov") {
		c, ok := condByName(mnemonic[4:])
		if !ok {
			return fmt.Errorf("unknown condition in %q", mnemonic)
		}
		rd, rs, err := wantRegReg(args)
		if err != nil {
			return err
		}
		b.Cmov(c, rd, rs)
		return nil
	}

	switch mnemonic {
	case "nop", "halt", "ret", "pushf", "popf":
		if len(args) != 0 {
			return fmt.Errorf("%s takes no operands", mnemonic)
		}
		switch mnemonic {
		case "nop":
			b.Nop()
		case "halt":
			b.Halt()
		case "ret":
			b.Ret()
		case "pushf":
			b.Emit(isa.Instr{Op: isa.OpPushF})
		case "popf":
			b.Emit(isa.Instr{Op: isa.OpPopF})
		}
	case "movi":
		rd, err := wantReg(args, 0, 2)
		if err != nil {
			return err
		}
		if strings.HasPrefix(args[1], "=") {
			lbl := args[1][1:]
			if !isIdent(lbl) {
				return fmt.Errorf("bad label reference %q", args[1])
			}
			b.MovLabel(rd, b.Named(lbl))
			return nil
		}
		imm, err := parseInt(args[1])
		if err != nil {
			return err
		}
		b.MovI(rd, imm)
	case "mov":
		rd, rs, err := wantRegReg(args)
		if err != nil {
			return err
		}
		b.Mov(rd, rs)
	case "lea":
		rd, err := wantReg(args, 0, 2)
		if err != nil {
			return err
		}
		base, off, err := parseMem(args[1])
		if err != nil {
			return err
		}
		b.Lea(rd, base, off)
	case "lea3":
		if len(args) != 2 {
			return fmt.Errorf("lea3 wants rd, [rs1+rs2+imm]")
		}
		rd, ok := isa.RegByName(args[0])
		if !ok {
			return fmt.Errorf("bad register %q", args[0])
		}
		rs1, rs2, off, err := parseMem3(args[1])
		if err != nil {
			return err
		}
		b.Emit(isa.Instr{Op: isa.OpLea3, RD: rd, RS1: rs1, RS2: rs2, Imm: off})
	case "load":
		rd, err := wantReg(args, 0, 2)
		if err != nil {
			return err
		}
		base, off, err := parseMem(args[1])
		if err != nil {
			return err
		}
		b.Load(rd, base, off)
	case "store":
		if len(args) != 2 {
			return fmt.Errorf("store wants [base+off], reg")
		}
		base, off, err := parseMem(args[0])
		if err != nil {
			return err
		}
		rs, ok := isa.RegByName(args[1])
		if !ok {
			return fmt.Errorf("bad register %q", args[1])
		}
		b.Store(base, off, rs)
	case "push":
		rs, err := wantReg(args, 0, 1)
		if err != nil {
			return err
		}
		b.Push(rs)
	case "pop":
		rd, err := wantReg(args, 0, 1)
		if err != nil {
			return err
		}
		b.Pop(rd)
	case "add", "sub", "and", "or", "xor", "shl", "shr", "mul", "div", "cmp", "test",
		"fadd", "fsub", "fmul", "fdiv":
		rd, rs, err := wantRegReg(args)
		if err != nil {
			return err
		}
		b.Emit(isa.Instr{Op: regRegOp[mnemonic], RD: rd, RS1: rs})
	case "addi", "subi", "andi", "ori", "xori", "shli", "shri", "cmpi":
		rd, err := wantReg(args, 0, 2)
		if err != nil {
			return err
		}
		imm, err := parseInt(args[1])
		if err != nil {
			return err
		}
		b.Emit(isa.Instr{Op: regImmOp[mnemonic], RD: rd, Imm: imm})
	case "jmp":
		lbl, err := wantLabel(args, 0, 1)
		if err != nil {
			return err
		}
		b.Jmp(b.Named(lbl))
	case "call":
		lbl, err := wantLabel(args, 0, 1)
		if err != nil {
			return err
		}
		b.Call(b.Named(lbl))
	case "jrz":
		rs, err := wantReg(args, 0, 2)
		if err != nil {
			return err
		}
		if !isIdent(args[1]) {
			return fmt.Errorf("jrz wants a label, got %q", args[1])
		}
		b.Jrz(rs, b.Named(args[1]))
	case "jmpr":
		rs, err := wantReg(args, 0, 1)
		if err != nil {
			return err
		}
		b.JmpR(rs)
	case "callr":
		rs, err := wantReg(args, 0, 1)
		if err != nil {
			return err
		}
		b.CallR(rs)
	case "out":
		rs, err := wantReg(args, 0, 1)
		if err != nil {
			return err
		}
		b.Out(rs)
	default:
		return fmt.Errorf("unknown mnemonic %q", mnemonic)
	}
	return nil
}

var regRegOp = map[string]isa.Op{
	"add": isa.OpAdd, "sub": isa.OpSub, "and": isa.OpAnd, "or": isa.OpOr,
	"xor": isa.OpXor, "shl": isa.OpShl, "shr": isa.OpShr, "mul": isa.OpMul,
	"div": isa.OpDiv, "cmp": isa.OpCmp, "test": isa.OpTest,
	"fadd": isa.OpFAdd, "fsub": isa.OpFSub, "fmul": isa.OpFMul, "fdiv": isa.OpFDiv,
}

var regImmOp = map[string]isa.Op{
	"addi": isa.OpAddI, "subi": isa.OpSubI, "andi": isa.OpAndI, "ori": isa.OpOrI,
	"xori": isa.OpXorI, "shli": isa.OpShlI, "shri": isa.OpShrI, "cmpi": isa.OpCmpI,
}

func condByName(s string) (isa.Cond, bool) {
	for c := isa.Cond(0); c.Valid(); c++ {
		if c.String() == s {
			return c, true
		}
	}
	// IA32 aliases.
	switch s {
	case "e":
		return isa.CondEQ, true
	case "z":
		return isa.CondEQ, true
	case "nz":
		return isa.CondNE, true
	case "l":
		return isa.CondLT, true
	case "g":
		return isa.CondGT, true
	}
	return 0, false
}

func splitArgs(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func parseInt(s string) (int32, error) {
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad integer %q", s)
	}
	if v < -(1<<31) || v > (1<<31)-1 {
		return 0, fmt.Errorf("integer %q out of 32-bit range", s)
	}
	return int32(v), nil
}

// parseMem parses "[reg]", "[reg+imm]" or "[reg-imm]".
func parseMem(s string) (isa.Reg, int32, error) {
	if len(s) < 2 || s[0] != '[' || s[len(s)-1] != ']' {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	inner := s[1 : len(s)-1]
	i := strings.IndexAny(inner, "+-")
	if i < 0 {
		r, ok := isa.RegByName(strings.TrimSpace(inner))
		if !ok {
			return 0, 0, fmt.Errorf("bad register in %q", s)
		}
		return r, 0, nil
	}
	r, ok := isa.RegByName(strings.TrimSpace(inner[:i]))
	if !ok {
		return 0, 0, fmt.Errorf("bad register in %q", s)
	}
	off, err := parseInt(strings.TrimSpace(inner[i:]))
	if err != nil {
		return 0, 0, err
	}
	return r, off, nil
}

// parseMem3 parses "[rs1+rs2]" or "[rs1+rs2+imm]" or "[rs1+rs2-imm]".
func parseMem3(s string) (isa.Reg, isa.Reg, int32, error) {
	if len(s) < 2 || s[0] != '[' || s[len(s)-1] != ']' {
		return 0, 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	parts := strings.Split(s[1:len(s)-1], "+")
	if len(parts) < 2 {
		return 0, 0, 0, fmt.Errorf("lea3 operand %q wants rs1+rs2[+imm]", s)
	}
	r1, ok := isa.RegByName(strings.TrimSpace(parts[0]))
	if !ok {
		return 0, 0, 0, fmt.Errorf("bad register in %q", s)
	}
	second := strings.TrimSpace(strings.Join(parts[1:], "+"))
	// second may be "reg", "reg+imm" (joined above) or "reg-imm".
	var immStr string
	sep := strings.IndexAny(second, "+-")
	if sep >= 0 {
		immStr = second[sep:]
		second = second[:sep]
	}
	r2, ok := isa.RegByName(strings.TrimSpace(second))
	if !ok {
		return 0, 0, 0, fmt.Errorf("bad register in %q", s)
	}
	var off int32
	if immStr != "" {
		v, err := parseInt(strings.TrimPrefix(immStr, "+"))
		if err != nil {
			return 0, 0, 0, err
		}
		off = v
	}
	return r1, r2, off, nil
}

func wantReg(args []string, i, n int) (isa.Reg, error) {
	if len(args) != n {
		return 0, fmt.Errorf("want %d operands, got %d", n, len(args))
	}
	r, ok := isa.RegByName(args[i])
	if !ok {
		return 0, fmt.Errorf("bad register %q", args[i])
	}
	return r, nil
}

func wantRegReg(args []string) (isa.Reg, isa.Reg, error) {
	if len(args) != 2 {
		return 0, 0, fmt.Errorf("want 2 register operands, got %d", len(args))
	}
	r1, ok := isa.RegByName(args[0])
	if !ok {
		return 0, 0, fmt.Errorf("bad register %q", args[0])
	}
	r2, ok := isa.RegByName(args[1])
	if !ok {
		return 0, 0, fmt.Errorf("bad register %q", args[1])
	}
	return r1, r2, nil
}

func wantLabel(args []string, i, n int) (string, error) {
	if len(args) != n {
		return "", fmt.Errorf("want %d operands, got %d", n, len(args))
	}
	if !isIdent(args[i]) {
		return "", fmt.Errorf("bad label %q", args[i])
	}
	return args[i], nil
}

func wantInt(args []string, i, n int) (int64, error) {
	if len(args) != n {
		return 0, fmt.Errorf("want %d operands, got %d", n, len(args))
	}
	v, err := strconv.ParseInt(args[i], 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad integer %q", args[i])
	}
	return v, nil
}
