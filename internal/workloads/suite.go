package workloads

import "fmt"

// The per-benchmark profiles below are calibrated so the suite-level
// shapes match the paper: SPEC-Fp programs have large basic blocks, heavy
// floating-point mixes and tight single-block kernels (high category C,
// smaller instrumentation slowdown, higher taken ratio); SPEC-Int programs
// are branchy with small blocks and more calls (high category E and A,
// larger slowdown, more not-taken branches). Static footprints put roughly
// half of the taken-branch offset-bit flips outside the code region
// (category F), as the paper measures.

func intProfile(name string, seed int64) Profile {
	return Profile{
		Name: name, Suite: SuiteInt, Seed: seed,
		Funcs: 4, OuterIters: 12,
		InnerItersMin: 8, InnerItersMax: 24,
		BlockMin: 3, BlockMax: 9,
		SelfLoopFrac: 0.3, DiamondFrac: 1.6, TakenBias: 0.26,
		FpFrac: 0, MemFrac: 0.18, MulFrac: 0.06,
		CallInLoopFrac: 0.22,
		ColdWords:      88_000,
		DataWords:      4096,
	}
}

func fpProfile(name string, seed int64) Profile {
	return Profile{
		Name: name, Suite: SuiteFp, Seed: seed,
		Funcs: 3, OuterIters: 14,
		InnerItersMin: 20, InnerItersMax: 48,
		BlockMin: 16, BlockMax: 44,
		SelfLoopFrac: 0.8, DiamondFrac: 0.6, TakenBias: 0.32,
		FpFrac: 0.5, MemFrac: 0.14, MulFrac: 0.04,
		CallInLoopFrac: 0.05,
		ColdWords:      52_000,
		DataWords:      8192,
	}
}

// tweak applies per-benchmark personality on top of the suite defaults.
func tweak(p Profile, f func(*Profile)) Profile {
	f(&p)
	return p
}

// SpecInt returns the 12 SPEC-Int 2000 workload profiles.
func SpecInt() []Profile {
	return []Profile{
		tweak(intProfile("164.gzip", 164), func(p *Profile) { p.MemFrac = 0.25; p.BlockMax = 11 }),
		tweak(intProfile("175.vpr", 175), func(p *Profile) { p.DiamondFrac = 1.3; p.FpFrac = 0.08 }),
		tweak(intProfile("176.gcc", 176), func(p *Profile) {
			p.Funcs = 6
			p.ColdWords = 120_000
			p.BlockMin, p.BlockMax = 2, 7
			p.CallInLoopFrac = 0.3
		}),
		tweak(intProfile("181.mcf", 181), func(p *Profile) { p.MemFrac = 0.35; p.InnerItersMax = 40 }),
		tweak(intProfile("186.crafty", 186), func(p *Profile) { p.DiamondFrac = 2.0; p.MulFrac = 0.1 }),
		tweak(intProfile("197.parser", 197), func(p *Profile) { p.CallInLoopFrac = 0.35; p.BlockMax = 7 }),
		tweak(intProfile("252.eon", 252), func(p *Profile) { p.FpFrac = 0.15; p.BlockMax = 14 }),
		tweak(intProfile("253.perlbmk", 253), func(p *Profile) { p.Funcs = 5; p.CallInLoopFrac = 0.32 }),
		tweak(intProfile("254.gap", 254), func(p *Profile) { p.MulFrac = 0.12 }),
		tweak(intProfile("255.vortex", 255), func(p *Profile) { p.MemFrac = 0.3; p.ColdWords = 100_000 }),
		tweak(intProfile("256.bzip2", 256), func(p *Profile) { p.BlockMax = 12; p.DiamondFrac = 1.2 }),
		tweak(intProfile("300.twolf", 300), func(p *Profile) { p.DiamondFrac = 1.8; p.TakenBias = 0.34 }),
	}
}

// SpecFp returns the 14 SPEC-Fp 2000 workload profiles.
func SpecFp() []Profile {
	return []Profile{
		tweak(fpProfile("168.wupwise", 168), func(p *Profile) { p.FpFrac = 0.55 }),
		tweak(fpProfile("171.swim", 171), func(p *Profile) { p.SelfLoopFrac = 0.9; p.BlockMax = 56 }),
		tweak(fpProfile("172.mgrid", 172), func(p *Profile) { p.SelfLoopFrac = 0.9; p.BlockMin = 22 }),
		tweak(fpProfile("173.applu", 173), func(p *Profile) { p.BlockMax = 52 }),
		tweak(fpProfile("177.mesa", 177), func(p *Profile) {
			p.DiamondFrac = 0.7
			p.SelfLoopFrac = 0.5
			p.FpFrac = 0.35
		}),
		tweak(fpProfile("178.galgel", 178), func(p *Profile) { p.FpFrac = 0.6 }),
		tweak(fpProfile("179.art", 179), func(p *Profile) { p.MemFrac = 0.22; p.BlockMax = 40 }),
		tweak(fpProfile("183.equake", 183), func(p *Profile) { p.MemFrac = 0.25 }),
		tweak(fpProfile("187.facerec", 187), func(p *Profile) { p.DiamondFrac = 0.4 }),
		tweak(fpProfile("188.ammp", 188), func(p *Profile) { p.CallInLoopFrac = 0.12; p.SelfLoopFrac = 0.65 }),
		tweak(fpProfile("189.lucas", 189), func(p *Profile) { p.SelfLoopFrac = 0.9; p.MulFrac = 0.08 }),
		tweak(fpProfile("191.fma3d", 191), func(p *Profile) { p.Funcs = 4; p.CallInLoopFrac = 0.1 }),
		tweak(fpProfile("200.sixtrack", 200), func(p *Profile) { p.BlockMin = 20; p.FpFrac = 0.58 }),
		tweak(fpProfile("301.apsi", 301), func(p *Profile) { p.DiamondFrac = 0.3 }),
	}
}

// All returns every profile, fp first then int, matching the paper's
// figure ordering.
func All() []Profile {
	return append(SpecFp(), SpecInt()...)
}

// profiles is All, built once for ByName.
var profiles = All()

// ByName looks a profile up by its benchmark name.
func ByName(name string) (Profile, error) {
	for _, p := range profiles {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("unknown workload %q (want one of the SPEC2000 names)", name)
}

// Names lists every workload name in figure order.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, p := range all {
		out[i] = p.Name
	}
	return out
}
