package check

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/dbt"
	"repro/internal/inject"
	"repro/internal/isa"
)

func mustAssemble(t *testing.T, src string) *isa.Program {
	t.Helper()
	p, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func nativeOut(t *testing.T, p *isa.Program) []int32 {
	t.Helper()
	m := cpu.New()
	if stop := m.RunProgram(p, 100_000_000); stop.Reason != cpu.StopHalt {
		t.Fatalf("native stop = %v", stop)
	}
	return append([]int32(nil), m.Output...)
}

var transparencyPrograms = map[string]string{
	"sum": `
main:
    movi eax, 0
    movi ecx, 10
loop:
    add eax, ecx
    subi ecx, 1
    cmpi ecx, 0
    jgt loop
    out eax
    halt
`,
	"calls": `
.data 32
main:
    movi eax, 2
    call f
    call f
    call g
    out eax
    halt
f:
    push ebx
    movi ebx, 3
    mul eax, ebx
    pop ebx
    ret
g:
    addi eax, 7
    ret
`,
	"diamond": `
main:
    movi eax, 4
    movi edi, 0
next:
    cmpi eax, 2
    jlt small
    addi edi, 100
    jmp join
small:
    addi edi, 1
join:
    subi eax, 1
    cmpi eax, 0
    jgt next
    out edi
    halt
`,
	"indirect": `
main:
    movi ecx, =fa
    callr ecx
    movi ecx, =fb
    callr ecx
    out eax
    halt
fa:
    addi eax, 5
    ret
fb:
    mul eax, eax
    ret
`,
	"flags-live-across-blocks": `
main:
    movi eax, 1
    cmpi eax, 2
    jmp next        ; flags stay live across this block boundary
next:
    jlt less
    movi ebx, 0
    jmp done
less:
    movi ebx, 77
done:
    out ebx
    halt
`,
	"nested-loops": `
main:
    movi eax, 0
    movi ecx, 200
outer:
    movi edx, 50
inner:
    addi eax, 1
    subi edx, 1
    cmpi edx, 0
    jgt inner
    subi ecx, 1
    cmpi ecx, 0
    jgt outer
    out eax
    halt
`,
}

// TestTransparency: every technique, update style and policy must preserve
// program behavior exactly — same output, no false error reports (the
// paper's necessary condition, end to end).
func TestTransparency(t *testing.T) {
	for name, src := range transparencyPrograms {
		p := mustAssemble(t, src)
		want := nativeOut(t, p)
		for _, style := range []dbt.UpdateStyle{dbt.UpdateJcc, dbt.UpdateCmov} {
			for _, tech := range DBTTechniques(style) {
				for _, pol := range dbt.Policies() {
					d := dbt.New(p, dbt.Options{Technique: tech, Policy: pol})
					res := d.Run(nil, 100_000_000)
					if res.Stop.Reason != cpu.StopHalt {
						t.Errorf("%s/%s/%s/%s: stop = %v (false positive?)",
							name, tech.Name(), style, pol, res.Stop)
						continue
					}
					if !equalOut(res.Output, want) {
						t.Errorf("%s/%s/%s/%s: output %v, want %v",
							name, tech.Name(), style, pol, res.Output, want)
					}
				}
			}
		}
	}
}

func equalOut(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTransparencyWithTraces: instrumentation must stay correct inside hot
// traces (merged blocks, seamless fall-throughs).
func TestTransparencyWithTraces(t *testing.T) {
	src := `
main:
    movi eax, 0
    movi ecx, 300
loop:
    addi eax, 2
    jmp mid
mid:
    subi eax, 1
    subi ecx, 1
    cmpi ecx, 0
    jgt loop
    out eax
    halt
`
	p := mustAssemble(t, src)
	want := nativeOut(t, p)
	for _, style := range []dbt.UpdateStyle{dbt.UpdateJcc, dbt.UpdateCmov} {
		for _, tech := range DBTTechniques(style) {
			d := dbt.New(p, dbt.Options{Technique: tech, TraceThreshold: 10})
			res := d.Run(nil, 100_000_000)
			if res.Stop.Reason != cpu.StopHalt || !equalOut(res.Output, want) {
				t.Errorf("%s/%s: stop=%v output=%v want=%v", tech.Name(), style, res.Stop, res.Output, want)
			}
			if res.Stats.TracesFormed == 0 {
				t.Errorf("%s/%s: no traces formed", tech.Name(), style)
			}
		}
	}
}

// TestOverheadOrdering reproduces the qualitative cost relations of
// Figures 12 and 14: every technique slows the program down relative to
// plain translation; RCF costs more than EdgCF; CMOVcc costs more than Jcc.
func TestOverheadOrdering(t *testing.T) {
	p := mustAssemble(t, transparencyPrograms["nested-loops"])
	cycles := func(tech dbt.Technique) uint64 {
		d := dbt.New(p, dbt.Options{Technique: tech})
		return d.Run(nil, 100_000_000).Cycles
	}
	base := cycles(dbt.None{})
	rcfJ := cycles(&RCF{Style: dbt.UpdateJcc})
	edgJ := cycles(&EdgCF{Style: dbt.UpdateJcc})
	ecfJ := cycles(&ECF{Style: dbt.UpdateJcc})
	rcfC := cycles(&RCF{Style: dbt.UpdateCmov})
	edgC := cycles(&EdgCF{Style: dbt.UpdateCmov})
	ecfC := cycles(&ECF{Style: dbt.UpdateCmov})

	for name, c := range map[string]uint64{"rcf": rcfJ, "edgcf": edgJ, "ecf": ecfJ} {
		if c <= base {
			t.Errorf("%s cycles %d <= baseline %d", name, c, base)
		}
	}
	if rcfJ <= edgJ {
		t.Errorf("RCF (%d) must cost more than EdgCF (%d)", rcfJ, edgJ)
	}
	if rcfC <= rcfJ || edgC <= edgJ || ecfC <= ecfJ {
		t.Errorf("CMOVcc must cost more than Jcc: rcf %d/%d edg %d/%d ecf %d/%d",
			rcfC, rcfJ, edgC, edgJ, ecfC, ecfJ)
	}
}

// TestPolicyOverheadOrdering reproduces Figure 15's relation: less frequent
// checking runs faster.
func TestPolicyOverheadOrdering(t *testing.T) {
	p := mustAssemble(t, transparencyPrograms["nested-loops"])
	cycles := func(pol dbt.Policy) uint64 {
		d := dbt.New(p, dbt.Options{Technique: &RCF{Style: dbt.UpdateJcc}, Policy: pol})
		return d.Run(nil, 100_000_000).Cycles
	}
	all, retbe, ret, end := cycles(dbt.PolicyAllBB), cycles(dbt.PolicyRetBE), cycles(dbt.PolicyRet), cycles(dbt.PolicyEnd)
	if !(all > retbe && retbe > ret && ret >= end) {
		t.Errorf("policy ordering violated: ALLBB=%d RET-BE=%d RET=%d END=%d", all, retbe, ret, end)
	}
}

// mistakenBranchProgram distinguishes its two paths by output: the correct
// run prints 222.
const mistakenBranchProgram = `
main:
    movi eax, 5
    cmpi eax, 5
    jeq good
    movi ebx, 111
    out ebx
    halt
good:
    movi ebx, 222
    out ebx
    halt
`

// outcome classifies a faulty run against the clean output.
type outcome int

const (
	outDetected outcome = iota
	outBenign           // completed with correct output
	outSDC              // completed with wrong output: silent data corruption
	outHung
)

func runWithFault(t *testing.T, p *isa.Program, tech dbt.Technique, pol dbt.Policy, f *cpu.Fault, want []int32) outcome {
	t.Helper()
	d := dbt.New(p, dbt.Options{Technique: tech, Policy: pol})
	res := d.Run(f, 5_000_000)
	switch {
	case res.Stop.Reason == cpu.StopReport, res.Stop.Reason.IsHardwareTrap():
		return outDetected
	case res.Stop.Reason == cpu.StopHalt:
		if equalOut(res.Output, want) {
			return outBenign
		}
		return outSDC
	default:
		return outHung
	}
}

// TestMistakenBranchCmovDetected: a flag upset at any branch can never
// cause silent data corruption, in either update style. Under CMOVcc the
// duplicated condition evaluation (the cmov committed the signature with
// clean flags) disagrees with the faulted branch; under Jcc the upset
// reverses either the inserted update branch or the original one, never
// both, so the signature and the path disagree. This is the category A
// coverage the paper claims for EdgCF/RCF/ECF.
func TestMistakenBranchCmovDetected(t *testing.T) {
	p := mustAssemble(t, mistakenBranchProgram)
	want := nativeOut(t, p)
	for _, style := range []dbt.UpdateStyle{dbt.UpdateJcc, dbt.UpdateCmov} {
		for _, tech := range DBTTechniques(style) {
			sdc := sweepFlagFaults(t, p, tech, want)
			if sdc != 0 {
				t.Errorf("%s/%s: %d silent corruptions from flag faults, want 0", tech.Name(), style, sdc)
			}
		}
	}
}

// TestMistakenBranchJccEscapes pins the paper's verdict that EdgCF and ECF
// with the Jcc update style are unsafe while RCF is safe, now that a flag
// upset is detected in every style (TestMistakenBranchCmovDetected): what
// escapes is an offset upset. Over every offset upset of the diamond
// program, EdgCF/Jcc and ECF/Jcc must each leave a silent corruption
// outside the residual gaps, and RCF/Jcc none. Each escape lands inside
// the faulted branch's own block, past its check, on the block's branch
// code: the mid-block signature state of EdgCF and ECF aliases every other
// mid-block point, while RCF's unique body regions tell them apart.
func TestMistakenBranchJccEscapes(t *testing.T) {
	p := mustAssemble(t, transparencyPrograms["diamond"])
	for _, tech := range DBTTechniques(dbt.UpdateJcc) {
		snap := dbt.New(p, dbt.Options{Technique: tech, Policy: dbt.PolicyAllBB}).Snapshot()
		clean := runOnClone(snap, nil, 5_000_000)
		if clean.stop.Reason != cpu.StopHalt {
			t.Fatalf("%s/Jcc: clean stop %v", tech.Name(), clean.stop)
		}
		escapes := 0
		for idx := uint64(0); idx < clean.m.DirectBranches; idx++ {
			for bit := uint(0); bit < isa.OffsetBits; bit++ {
				f := &cpu.Fault{BranchIndex: idx, Kind: cpu.FaultOffsetBit, Bit: bit}
				r := runOnClone(snap, f, 5_000_000)
				if r.stop.Reason != cpu.StopHalt || equalOut(r.m.Output, clean.m.Output) ||
					inject.IsResidualGap(r.d, f.FaultTarget) {
					continue
				}
				escapes++
				from, _ := r.d.Locate(f.FaultIP)
				to, ok := r.d.Locate(f.FaultTarget)
				if !ok || to != from || f.FaultTarget == to.CacheStart {
					t.Errorf("%s/Jcc: branch %d bit %d escapes by landing at %#x outside its own block's body",
						tech.Name(), idx, bit, f.FaultTarget)
				}
			}
		}
		if rcf := tech.Name() == "RCF"; rcf != (escapes == 0) {
			t.Errorf("%s/Jcc: %d offset upsets escape outside the residual gaps", tech.Name(), escapes)
		}
	}
}

// sweepFlagFaults plants a Z-flag flip at every dynamic branch index and
// returns how many runs ended in silent data corruption.
func sweepFlagFaults(t *testing.T, p *isa.Program, tech dbt.Technique, want []int32) int {
	t.Helper()
	sdc := 0
	for idx := uint64(0); idx < 64; idx++ {
		f := &cpu.Fault{BranchIndex: idx, Kind: cpu.FaultFlagBit, Bit: 2 /* FlagZ */}
		if runWithFault(t, p, tech, dbt.PolicyAllBB, f, want) == outSDC {
			sdc++
		}
		if !f.Fired {
			break // past the last executed branch
		}
	}
	return sdc
}

// TestOffsetFaultSweepRCF: RCF with ALLBB must detect every offset upset
// that matters — sweep all (branch, bit) pairs and require zero silent
// corruptions and zero hangs, modulo the one gap no signature scheme
// closes (the paper's Assumption 2): landing at the very end of a block,
// past its final check, where no CHECK_SIG can ever run.
func TestOffsetFaultSweepRCF(t *testing.T) {
	p := mustAssemble(t, transparencyPrograms["diamond"])
	want := nativeOut(t, p)
	tech := &RCF{Style: dbt.UpdateJcc}
	d := dbt.New(p, dbt.Options{Technique: tech, Policy: dbt.PolicyAllBB})
	d.Run(nil, 5_000_000)
	hung := 0
	for idx := uint64(0); idx < 200; idx++ {
		fired := false
		for bit := uint(0); bit < 12; bit++ {
			f := &cpu.Fault{BranchIndex: idx, Kind: cpu.FaultOffsetBit, Bit: bit}
			switch runWithFault(t, p, tech, dbt.PolicyAllBB, f, want) {
			case outSDC:
				if !inject.IsResidualGap(d, f.FaultTarget) {
					t.Errorf("RCF/ALLBB: unexplained SDC at branch %d bit %d (target %#x)",
						idx, bit, f.FaultTarget)
				}
			case outHung:
				hung++
			}
			fired = f.Fired
		}
		if !fired {
			break
		}
	}
	if hung != 0 {
		t.Errorf("RCF/ALLBB: %d hangs from offset faults, want 0", hung)
	}
}

// TestEndPolicyCanMissLoopingErrors documents the paper's caveat: the END
// policy cannot report an error that throws the program into an infinite
// loop. We only require that the run does not silently corrupt output.
func TestEndPolicyStillChecksAtExit(t *testing.T) {
	p := mustAssemble(t, transparencyPrograms["diamond"])
	want := nativeOut(t, p)
	tech := &EdgCF{Style: dbt.UpdateCmov}
	sdc := 0
	for idx := uint64(0); idx < 100; idx++ {
		f := &cpu.Fault{BranchIndex: idx, Kind: cpu.FaultOffsetBit, Bit: 1}
		if runWithFault(t, p, tech, dbt.PolicyEnd, f, want) == outSDC {
			sdc++
		}
		if !f.Fired {
			break
		}
	}
	if sdc != 0 {
		t.Errorf("END policy: %d silent corruptions; the final check must catch surviving errors", sdc)
	}
}
