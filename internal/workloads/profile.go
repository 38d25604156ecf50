// Package workloads generates the benchmark programs used by all
// experiments: one synthetic program per SPEC CPU2000 benchmark name (12
// integer, 14 floating point), shaped by per-benchmark profiles.
//
// The paper's results depend on aggregate program characteristics, not on
// SPEC semantics: basic-block size distribution (fp large, int small),
// branch taken ratios, single-block inner loops (the source of SPEC-Fp's
// high category C), call/return frequency (the DBT's indirect-branch
// overhead and the RET policy's check density), instruction mix (fp
// long-latency ops shrink relative instrumentation overhead), and static
// code footprint (which sets how many offset-bit flips leave the code
// region, category F). Each profile dials those knobs; generation is
// deterministic in the profile seed.
package workloads

import (
	"fmt"
	"math/rand"

	"repro/internal/asm"
	"repro/internal/isa"
)

// Suite tags a workload as integer or floating point.
type Suite int

// Suites.
const (
	SuiteInt Suite = iota
	SuiteFp
)

// String names the suite as the paper does.
func (s Suite) String() string {
	if s == SuiteInt {
		return "SPEC-Int"
	}
	return "SPEC-Fp"
}

// Profile describes one benchmark's shape.
type Profile struct {
	Name  string
	Suite Suite
	Seed  int64

	// Funcs is the number of distinct hot functions main calls per outer
	// iteration.
	Funcs int
	// OuterIters scales total work (main's outer loop trip count).
	OuterIters int
	// InnerItersMin/Max bound loop trip counts inside functions.
	InnerItersMin, InnerItersMax int

	// BlockMin/Max bound straight-line block sizes in instructions.
	BlockMin, BlockMax int
	// SelfLoopFrac is the fraction of loops generated as one big
	// single-block body (fp-style tight kernels; drives category C).
	SelfLoopFrac float64
	// DiamondFrac is the probability a body block is followed by a
	// data-dependent if/else diamond (int-style branchy code).
	DiamondFrac float64
	// TakenBias is the probability data-dependent branches are taken.
	TakenBias float64

	// FpFrac is the fraction of body instructions that are floating point.
	FpFrac float64
	// MemFrac is the fraction of body instructions touching memory.
	MemFrac float64
	// MulFrac is the fraction of body instructions that are multiplies.
	MulFrac float64

	// CallInLoopFrac is the probability a loop body calls a leaf helper
	// (drives ret frequency: DBT indirect overhead and the RET policy).
	CallInLoopFrac float64

	// ColdWords pads the image with never-executed but valid code placed
	// around the hot region, setting the static footprint (category F).
	ColdWords int

	// DataWords sizes the data segment.
	DataWords uint32
}

// scaled returns a copy with dynamic work scaled by f (static shape
// unchanged). Scale 1 is the full experiment size.
func (p Profile) scaled(f float64) Profile {
	if f <= 0 || f == 1 {
		return p
	}
	o := float64(p.OuterIters) * f
	if o < 1 {
		o = 1
	}
	p.OuterIters = int(o)
	return p
}

// Build generates the program at the given dynamic scale (1.0 = full
// size; tests use small fractions).
func (p Profile) Build(scale float64) (*isa.Program, error) {
	pr := p.scaled(scale)
	g := &generator{
		prof: pr,
		rng:  rand.New(rand.NewSource(pr.Seed)),
		b:    asm.NewBuilder(pr.Name),
	}
	return g.build()
}

// MustBuild is Build, panicking on generator bugs (profiles are static
// data; failures are programming errors).
func (p Profile) MustBuild(scale float64) *isa.Program {
	prog, err := p.Build(scale)
	if err != nil {
		panic(fmt.Sprintf("workload %s: %v", p.Name, err))
	}
	return prog
}

// sizeBound bounds the words and labels Build emits: the cold region
// (chunks of at least 29 words, one label each), main, the leaf helper,
// and Funcs functions at their largest.
func (p Profile) sizeBound() (words, labels int) {
	body := p.BlockMax + 1           // emitBody may overshoot by one word
	cond := 6 + 2*body               // LCG step, compare, jcc, jmp, two bodies
	conds := int(p.DiamondFrac) + 1  // emitCond calls per body segment
	nest := 3*(body+conds*cond) + 12 // up to three segments, loop control
	kern := 2*body + 16              // a self-loop of twice BlockMax or 12
	words = p.ColdWords + 16 + p.Funcs*(8+max(nest, kern))
	labels = p.ColdWords/29 + 3 + p.Funcs*(3+6*conds)
	return words, labels
}

// generator carries the emission state.
//
// Register allocation:
//
//	eax — accumulator, printed at program end (SDC witness)
//	ebp — LCG state for data-dependent branch conditions
//	esi — scratch (LCG constants, memory addresses)
//	edx — body scratch
//	ebx — function outer-loop counter
//	ecx — function inner-loop counter
//	edi — main's outer counter (reserved for main)
type generator struct {
	prof   Profile
	rng    *rand.Rand
	b      *asm.Builder
	labels uint32
	leaf   asm.Label
	fns    []asm.Label
}

// label returns a new label named prefix and the next number.
func (g *generator) label(prefix string) asm.Label {
	g.labels++
	return g.b.Numbered(prefix, g.labels, 10)
}

func (g *generator) build() (*isa.Program, error) {
	pr := g.prof
	b := g.b
	b.SetDataWords(pr.DataWords)
	b.Grow(pr.sizeBound())
	main := b.Named("main")
	b.SetEntry(main)
	g.leaf = b.Named("leaf")
	g.fns = make([]asm.Label, pr.Funcs)
	for f := range g.fns {
		g.fns[f] = b.Numbered("fn", uint32(f), 10)
	}

	// Layout: cold front half, hot code, cold back half. Keeping the hot
	// region centered makes offset-bit flips land symmetrically, like a
	// branch in the middle of a real binary's text section.
	g.emitCold("coldf", pr.ColdWords/2)

	// Leaf helper used by CallInLoopFrac call sites.
	b.Bind(g.leaf)
	b.Push(isa.EDX)
	b.MovI(isa.EDX, int32(g.rng.Intn(1000)+1))
	b.Add(isa.EAX, isa.EDX)
	b.XorI(isa.EAX, int32(g.rng.Intn(1<<16)))
	b.Pop(isa.EDX)
	b.Ret()

	// Hot functions.
	for f := 0; f < pr.Funcs; f++ {
		g.emitFunction(f)
	}

	// main.
	b.Bind(main)
	b.MovI(isa.EAX, 0)
	b.MovI(isa.EBP, int32(pr.Seed)|1)
	b.MovI(isa.EDI, int32(pr.OuterIters))
	loop := b.Named("main_loop")
	b.Bind(loop)
	for _, fn := range g.fns {
		b.Call(fn)
	}
	b.SubI(isa.EDI, 1)
	b.CmpI(isa.EDI, 0)
	b.Jcc(isa.CondGT, loop)
	b.Out(isa.EAX)
	b.Halt()

	g.emitCold("coldb", pr.ColdWords-pr.ColdWords/2)

	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	prog.Name = pr.Name
	return prog, nil
}

// emitFunction generates one hot function: a loop nest whose bodies are
// straight-line blocks, optional diamonds and optional leaf calls.
func (g *generator) emitFunction(idx int) {
	pr := g.prof
	b := g.b
	b.Bind(g.fns[idx])
	b.Push(isa.EBX)
	b.Push(isa.ECX)

	if g.rng.Float64() < pr.SelfLoopFrac {
		g.emitSelfLoop()
	} else {
		g.emitNest()
	}

	b.Pop(isa.ECX)
	b.Pop(isa.EBX)
	b.Ret()
}

// emitSelfLoop emits the fp-kernel shape: one large basic block looping on
// itself, so low offset-bit flips of the back edge land inside the same
// block (category C). Kernels iterate longer than ordinary loops, the way
// fp inner loops dominate dynamic branch counts.
func (g *generator) emitSelfLoop() {
	pr := g.prof
	b := g.b
	trips := g.trips() * 8
	top := g.label("kern")
	b.MovI(isa.EBX, int32(trips))
	b.Bind(top)
	n := pr.BlockMax
	if n < 16 {
		// Integer-style tight loops: still a single block, just shorter.
		n = pr.BlockMax * 2
	}
	if n < 12 {
		n = 12
	}
	g.emitBody(n - 3)
	b.SubI(isa.EBX, 1)
	b.CmpI(isa.EBX, 0)
	b.Jcc(isa.CondGT, top)
}

// emitNest emits a two-level loop nest with branchy bodies.
func (g *generator) emitNest() {
	pr := g.prof
	b := g.b
	outer := g.label("outer")
	inner := g.label("inner")

	b.MovI(isa.EBX, int32(g.nestTrips()))
	b.Bind(outer)
	b.MovI(isa.ECX, int32(g.nestTrips()))
	b.Bind(inner)

	blocks := 1 + g.rng.Intn(3)
	for i := 0; i < blocks; i++ {
		g.emitBody(g.blockSize())
		// DiamondFrac is the expected number of conditionals per body
		// segment; values above 1 emit several.
		for frac := pr.DiamondFrac; frac > 0; frac-- {
			if g.rng.Float64() < frac {
				g.emitCond()
			}
		}
	}
	if g.rng.Float64() < pr.CallInLoopFrac {
		b.Call(g.leaf)
	}

	b.SubI(isa.ECX, 1)
	b.CmpI(isa.ECX, 0)
	b.Jcc(isa.CondGT, inner)
	b.SubI(isa.EBX, 1)
	b.CmpI(isa.EBX, 0)
	b.Jcc(isa.CondGT, outer)
}

// emitCond emits a data-dependent conditional with the profile's taken
// bias, conditioned on the LCG state. Most are else-less ifs (a skip
// branch, not taken with probability 1-bias, and no unconditional join
// jump), which is how branchy integer code reaches the paper's ~60%
// not-taken ratio; a quarter are full if/else diamonds.
func (g *generator) emitCond() {
	b := g.b
	g.emitLCGStep()
	thresh := thresholdFor(g.prof.TakenBias)
	g.emitLCGCmp(thresh)
	if g.rng.Float64() < 0.25 {
		elseL := g.label("else")
		joinL := g.label("join")
		b.Jcc(isa.CondGE, elseL)
		g.emitBody(g.blockSize())
		b.Jmp(joinL)
		b.Bind(elseL)
		g.emitBody(g.blockSize())
		b.Bind(joinL)
		return
	}
	skipL := g.label("skip")
	b.Jcc(isa.CondGE, skipL)
	g.emitBody(g.blockSize())
	b.Bind(skipL)
}

func (g *generator) emitLCGCmp(thresh int32) {
	g.b.CmpI(isa.EBP, thresh)
}

// thresholdFor maps a taken bias to a signed comparison threshold over the
// roughly uniform int32 LCG output: P(x >= t) ~ bias.
func thresholdFor(bias float64) int32 {
	if bias <= 0 {
		return 1<<31 - 1
	}
	if bias >= 1 {
		return -(1 << 31)
	}
	return int32((1 - 2*bias) * float64(int64(1)<<31))
}

// emitLCGStep advances the pseudo-random state register.
func (g *generator) emitLCGStep() {
	b := g.b
	b.MovI(isa.ESI, 1103515245)
	b.Mul(isa.EBP, isa.ESI)
	b.AddI(isa.EBP, 12345)
}

// blockSize draws a straight-line block size from the profile.
func (g *generator) blockSize() int {
	pr := g.prof
	if pr.BlockMax <= pr.BlockMin {
		return pr.BlockMin
	}
	return pr.BlockMin + g.rng.Intn(pr.BlockMax-pr.BlockMin)
}

// nestTrips draws loop trip counts for multi-block nests. Fp nests are
// kept short so the single-block kernels dominate the dynamic branch mix,
// as they do in real fp codes.
func (g *generator) nestTrips() int {
	t := g.trips()
	if g.prof.Suite == SuiteFp {
		t = t/3 + 2
	}
	return t
}

func (g *generator) trips() int {
	pr := g.prof
	if pr.InnerItersMax <= pr.InnerItersMin {
		return pr.InnerItersMin
	}
	return pr.InnerItersMin + g.rng.Intn(pr.InnerItersMax-pr.InnerItersMin)
}

// emitBody emits n straight-line instructions with the profile's mix.
func (g *generator) emitBody(n int) {
	pr := g.prof
	b := g.b
	for i := 0; i < n; i++ {
		r := g.rng.Float64()
		switch {
		case r < pr.FpFrac:
			switch g.rng.Intn(4) {
			case 0:
				b.FAdd(isa.EAX, isa.EDX)
			case 1:
				b.FMul(isa.EAX, isa.EDX)
			case 2:
				b.FSub(isa.EDX, isa.EAX)
			default:
				b.FAdd(isa.EDX, isa.EAX)
			}
		case r < pr.FpFrac+pr.MemFrac:
			addr := int32(g.rng.Intn(int(pr.DataWords)))
			b.MovI(isa.ESI, addr)
			if g.rng.Intn(2) == 0 {
				b.Store(isa.ESI, 0, isa.EAX)
			} else {
				b.Load(isa.EDX, isa.ESI, 0)
			}
			i++ // two instructions emitted
		case r < pr.FpFrac+pr.MemFrac+pr.MulFrac:
			b.MovI(isa.EDX, int32(g.rng.Intn(100)+3))
			b.Mul(isa.EAX, isa.EDX)
			i++
		default:
			switch g.rng.Intn(5) {
			case 0:
				b.AddI(isa.EAX, int32(g.rng.Intn(1000)))
			case 1:
				b.XorI(isa.EAX, int32(g.rng.Intn(1<<20)))
			case 2:
				b.Lea(isa.EDX, isa.EAX, int32(g.rng.Intn(64)))
			case 3:
				b.Add(isa.EAX, isa.EDX)
			default:
				b.ShrI(isa.EDX, 1)
			}
		}
	}
}

// emitCold pads the image with valid, never-executed code: short blocks of
// arithmetic ending in local jumps or returns, so wild branch targets
// landing there decode as plausible basic blocks.
func (g *generator) emitCold(prefix string, words int) {
	b := g.b
	start := int(b.PC())
	chunk := uint32(0)
	for int(b.PC())-start+80 <= words {
		lbl := b.Numbered(prefix, chunk, 10)
		b.Bind(lbl)
		g.emitBody(28 + g.rng.Intn(36))
		// Alternate terminators: backward jump into the cold region or a
		// return (cold code is shaped like real library code).
		if chunk%3 == 2 {
			b.Jmp(lbl)
		} else {
			b.Ret()
		}
		chunk++
	}
}
