package cpu

import "math"

// The float32 ALU on register bit patterns. Machine.Step and the compiled
// backend both call these, so FP results are bit-identical across
// execution tiers by construction; each is small enough to inline.

// The results of a division by ±0.
const (
	posInf int32 = 0x7F800000
	negInf int32 = -0x800000 // 0xFF800000
)

// FAdd returns a + b.
func FAdd(a, b int32) int32 {
	return int32(math.Float32bits(math.Float32frombits(uint32(a)) + math.Float32frombits(uint32(b))))
}

// FSub returns a - b.
func FSub(a, b int32) int32 {
	return int32(math.Float32bits(math.Float32frombits(uint32(a)) - math.Float32frombits(uint32(b))))
}

// FMul returns a * b.
func FMul(a, b int32) int32 {
	return int32(math.Float32bits(math.Float32frombits(uint32(a)) * math.Float32frombits(uint32(b))))
}

// FDiv returns a / b, except that a division by ±0 gives -Inf when a is
// negative and +Inf otherwise (0/0 and NaN/0 included): simple and
// deterministic, unlike IEEE's sign rule and NaN.
func FDiv(a, b int32) int32 {
	fa, fb := math.Float32frombits(uint32(a)), math.Float32frombits(uint32(b))
	if fb == 0 {
		if fa < 0 {
			return negInf
		}
		return posInf
	}
	return int32(math.Float32bits(fa / fb))
}
