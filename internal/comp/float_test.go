package comp

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
)

// TestFloatSpecialOperands runs every FP operation over every pair of
// special float32 operands inside one compiled block and requires the
// compiled tier to equal the step interpreter bit for bit, and a division
// by ±0 to give -Inf for a negative dividend and +Inf otherwise.
func TestFloatSpecialOperands(t *testing.T) {
	specials := []uint32{
		0x00000000, 0x80000000, // ±0
		0x7F800000, 0xFF800000, // ±Inf
		0x7FC00000, 0xFFC00001, 0x7F800001, 0x7FBFFFFF, // quiet and signaling NaN payloads
		0x00000001, 0x807FFFFF, 0x00400000, // subnormals
		0x7F7FFFFF, 0xFF7FFFFF, // ±max normal
		0x00800000, 0x3F800000, 0xBFC00000, // min normal, 1, -1.5
	}
	ops := []isa.Op{isa.OpFAdd, isa.OpFSub, isa.OpFMul, isa.OpFDiv}
	code := []isa.Instr{isa.NullPad}
	for _, op := range ops {
		for _, a := range specials {
			for _, b := range specials {
				code = append(code,
					isa.Instr{Op: isa.OpMovRI, RD: isa.EAX, Imm: int32(a)},
					isa.Instr{Op: isa.OpMovRI, RD: isa.EBX, Imm: int32(b)},
					isa.Instr{Op: op, RD: isa.EAX, RS1: isa.EBX},
					isa.Instr{Op: isa.OpOut, RS1: isa.EAX})
			}
		}
	}
	code = append(code, isa.Instr{Op: isa.OpHalt})
	p := &isa.Program{Name: "fp-specials", Code: code, Entry: 1}

	ref := cpu.New()
	ref.Reset(p)
	want := capture(ref, ref.Run(p.Code, testMaxSteps))
	m := cpu.New()
	m.Reset(p)
	eng := NewEngine(p.Code, nil, 0)
	eng.Freeze([]uint32{p.Entry})
	got := capture(m, eng.Run(m, p.Code, testMaxSteps))
	if eng.Stats.BlocksCompiled != 1 {
		t.Fatalf("compiled %d blocks, want the one block", eng.Stats.BlocksCompiled)
	}
	n := len(specials)
	if len(want.output) != len(ops)*n*n {
		t.Fatalf("step run wrote %d results, want %d", len(want.output), len(ops)*n*n)
	}
	for i := range want.output {
		if i < len(got.output) && got.output[i] != want.output[i] {
			a, b := specials[i/n%n], specials[i%n]
			t.Errorf("%v %#08x, %#08x: compiled %#08x, step %#08x",
				ops[i/(n*n)], a, b, uint32(got.output[i]), uint32(want.output[i]))
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("compiled run differs from the step run\n got: %+v\nwant: %+v", got, want)
	}
	div := want.output[3*n*n:]
	for ai, a := range specials {
		for bi, b := range specials {
			if math.Float32frombits(b) != 0 {
				continue
			}
			inf := uint32(0x7F800000)
			if math.Float32frombits(a) < 0 {
				inf = 0xFF800000
			}
			if got := uint32(div[ai*n+bi]); got != inf {
				t.Errorf("%#08x / %#08x = %#08x, want %#08x", a, b, got, inf)
			}
		}
	}
}
