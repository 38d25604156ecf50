package comp

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/isa"
)

// retireWorkload calls double twenty times from a loop, so a patch under
// double's block or the loop's lands in code that keeps running long
// enough to heat the patched start into a cold block.
const retireWorkload = `
main:
    movi eax, 0
    movi ecx, 20
loop:
    add eax, ecx
    push ecx
    call double
    pop ecx
    subi ecx, 1
    cmpi ecx, 0
    jgt loop
    out eax
    halt
double:
    movi ebx, 2
    mul ebx, ebx
    out ebx
    ret
`

// retireCore assembles retireWorkload and freezes an engine over every
// start a clean adaptive run reached, so a clone runs the clean path
// entirely compiled. It returns the addresses of the loop and double.
func retireCore(t *testing.T) (p *isa.Program, core *Engine, loop, double uint32) {
	t.Helper()
	p, err := asm.Assemble("retire", retireWorkload)
	if err != nil {
		t.Fatal(err)
	}
	for a, name := range p.Symbols {
		switch name {
		case "loop":
			loop = a
		case "double":
			double = a
		}
	}
	warm := NewEngine(p.Code, nil, 0)
	m := cpu.New()
	m.Reset(p)
	if stop := warm.Run(m, p.Code, testMaxSteps); stop.Reason != cpu.StopHalt {
		t.Fatalf("warm run ended with %v", stop)
	}
	core = NewEngine(p.Code, nil, 0)
	core.Freeze(warm.Reached())
	return p, core, loop, double
}

// entrySteps returns the steps the oracle has retired when it enters addr
// for the nth time: a block boundary, so a compiled run stops exactly there.
func entrySteps(t *testing.T, p *isa.Program, addr uint32, n int) uint64 {
	t.Helper()
	m := cpu.New()
	m.Reset(p)
	for seen := 0; ; {
		if m.IP == addr {
			if seen++; seen == n {
				return m.Steps
			}
		}
		if stop, done := m.Step(p.Code); done {
			t.Fatalf("entry %d of %d never reached: %v", n, addr, stop)
		}
	}
}

// codePatch rewrites code[addr] to in once the run has retired at steps.
type codePatch struct {
	at   uint64
	addr uint32
	in   isa.Instr
}

// runPatched runs p to each patch point on the step oracle and on view v,
// applies the patch to a private copy of the code, reports it to v as the
// translator does (Sync, then Redecode) and calls after with the view's
// stats from just before the patch. Both then run to the end. It returns
// the view's outcome and the oracle's.
func runPatched(p *isa.Program, v *Engine, patches []codePatch, after func(i int, before Stats)) (got, want outcome) {
	code := p.Code
	ref, m := cpu.New(), cpu.New()
	ref.Reset(p)
	m.Reset(p)
	for i, pt := range patches {
		ref.Run(code, pt.at)
		v.Run(m, code, pt.at)
		before := v.Stats
		code = slices.Clone(code)
		code[pt.addr] = pt.in
		v.Sync(code)
		v.Redecode(pt.addr)
		if after != nil {
			after(i, before)
		}
	}
	want = capture(ref, ref.Run(code, testMaxSteps))
	got = capture(m, v.Run(m, code, testMaxSteps))
	return got, want
}

// sharedCovering returns the shared blocks of core covering addr.
func sharedCovering(core *Engine, addr uint32) []*cblock {
	var bs []*cblock
	for _, b := range core.c.blocks {
		if b.covers(addr) {
			bs = append(bs, b)
		}
	}
	return bs
}

// cleanRun requires that no shared block of core was dropped and that a
// fresh clone runs p's unpatched code exactly as the oracle does. It
// returns the steps that clone interpreted: the halting block, which the
// warm run never heated, runs cold.
func cleanRun(t *testing.T, p *isa.Program, core *Engine) uint64 {
	t.Helper()
	for _, b := range core.c.blocks {
		if b.dead || core.c.byAddr.get(b.start) != b {
			t.Errorf("shared block at %d was dropped from the core", b.start)
		}
	}
	ref := cpu.New()
	ref.Reset(p)
	want := capture(ref, ref.Run(p.Code, testMaxSteps))
	v := core.Clone()
	m := cpu.New()
	m.Reset(p)
	if got := capture(m, v.Run(m, p.Code, testMaxSteps)); !reflect.DeepEqual(got, want) {
		t.Errorf("fresh clone differs from Run\n got: %+v\nwant: %+v", got, want)
	}
	if len(v.retired) != 0 {
		t.Errorf("fresh clone retired %d blocks", len(v.retired))
	}
	return v.Stats.InterpretedSteps
}

// checkPatchVisible requires the patch to change the program's output, so
// a view that ran the stale shared block could not match the oracle.
func checkPatchVisible(t *testing.T, p *isa.Program, want outcome) {
	t.Helper()
	ref := cpu.New()
	ref.Reset(p)
	if clean := capture(ref, ref.Run(p.Code, testMaxSteps)); reflect.DeepEqual(clean.output, want.output) {
		t.Fatal("the patch does not change the output")
	}
}

// TestPatchedViewRetiresOnlyCoveringBlocks patches double's first
// instruction in a frozen view at double's third call. The view retires
// the one shared block covering it, runs that start on the interpreter
// until it heats into a cold block, and keeps running every other block
// compiled: its chain hits rise after the patch, and its interpreted steps
// are exactly the retired start's cold run. State, counters and output
// match the step oracle over the same patch, and the core is untouched.
func TestPatchedViewRetiresOnlyCoveringBlocks(t *testing.T) {
	p, core, _, double := retireCore(t)
	clean := cleanRun(t, p, core)
	covering := sharedCovering(core, double)
	if len(covering) != 1 {
		t.Fatalf("%d shared blocks cover double, want 1", len(covering))
	}
	b := covering[0]
	v := core.Clone()
	var before Stats
	got, want := runPatched(p, v, []codePatch{{
		at: entrySteps(t, p, double, 3), addr: double,
		in: isa.Instr{Op: isa.OpMovRI, RD: isa.EBX, Imm: 3},
	}}, func(_ int, st Stats) { before = st })
	checkPatchVisible(t, p, want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("patched view differs from Run\n got: %+v\nwant: %+v", got, want)
	}
	if before.InterpretedSteps != 0 {
		t.Errorf("view interpreted %d steps before the patch, want 0", before.InterpretedSteps)
	}
	if len(v.retired) != 1 || v.retired[0].shared != b || v.disabled {
		t.Errorf("view retired %d blocks (disabled %v), want only double's", len(v.retired), v.disabled)
	}
	if v.coldBlocks[double] == nil {
		t.Error("the retired start never heated into the view's cold tier")
	} else if v.retired[0].cold != v.coldBlocks[double] {
		t.Error("the retired block's replacement is not the cold tier's block at its start")
	}
	if want := clean + uint64(DefaultThreshold)*uint64(b.totalSteps); v.Stats.InterpretedSteps != want {
		t.Errorf("view interpreted %d steps, want %d (the clean run's and the retired start's cold run)", v.Stats.InterpretedSteps, want)
	}
	if v.Stats.ChainHits <= before.ChainHits {
		t.Errorf("chain hits %d after the patch, %d before: the view stopped chaining", v.Stats.ChainHits, before.ChainHits)
	}
	if cleanRun(t, p, core) != clean {
		t.Error("a fresh clone interprets more after the patched run")
	}
}

// retiredShared lists the shared blocks a view retired.
func retiredShared(v *Engine) []*cblock {
	var out []*cblock
	for _, r := range v.retired {
		out = append(out, r.shared)
	}
	return out
}

// TestPatchedViewsRunConcurrently runs two views of one frozen core at
// once, one patched under double and one under the loop body. Each
// matches its own oracle and retires only its own block; the core and a
// fresh clone stay clean.
func TestPatchedViewsRunConcurrently(t *testing.T) {
	p, core, loop, double := retireCore(t)
	clean := cleanRun(t, p, core)
	patches := [][]codePatch{
		{{at: entrySteps(t, p, double, 2), addr: double, in: isa.Instr{Op: isa.OpMovRI, RD: isa.EBX, Imm: 5}}},
		{{at: entrySteps(t, p, loop, 4), addr: loop, in: isa.Instr{Op: isa.OpSub, RD: isa.EAX, RS1: isa.ECX}}},
	}
	views := []*Engine{core.Clone(), core.Clone()}
	got := make([]outcome, len(views))
	want := make([]outcome, len(views))
	var wg sync.WaitGroup
	for i := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], want[i] = runPatched(p, views[i], patches[i], nil)
		}()
	}
	wg.Wait()
	for i, v := range views {
		checkPatchVisible(t, p, want[i])
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("view %d differs from Run\n got: %+v\nwant: %+v", i, got[i], want[i])
		}
		if w := sharedCovering(core, patches[i][0].addr); !slices.Equal(retiredShared(v), w) {
			t.Errorf("view %d retired %d blocks, want the %d covering its own patch", i, len(v.retired), len(w))
		}
	}
	if cleanRun(t, p, core) != clean {
		t.Error("a fresh clone interprets more after the patched runs")
	}
}

// TestPatchUnderColdBlockDropsColdTier patches double twice in one view:
// the first patch retires the shared block, and by the second the view
// has compiled double into its cold tier, so the second lands under a
// cold block. That drops the view's cold tier and nothing else: the
// retired set stays, the start heats afresh from the patched code, and
// the run still matches the oracle.
func TestPatchUnderColdBlockDropsColdTier(t *testing.T) {
	p, core, _, double := retireCore(t)
	clean := cleanRun(t, p, core)
	v := core.Clone()
	got, want := runPatched(p, v, []codePatch{
		{at: entrySteps(t, p, double, 3), addr: double, in: isa.Instr{Op: isa.OpMovRI, RD: isa.EBX, Imm: 3}},
		{at: entrySteps(t, p, double, 12), addr: double, in: isa.Instr{Op: isa.OpMovRI, RD: isa.EBX, Imm: 7}},
	}, func(i int, before Stats) {
		if i != 1 {
			return
		}
		if before.BlocksCompiled == 0 {
			t.Error("double never heated into the cold tier before the second patch")
		}
		if v.coldBlocks != nil || v.coldHeat != nil || len(v.retired) != 1 || v.retired[0].cold != nil {
			t.Errorf("second patch kept %d cold blocks and %d retired, want none and 1 without a replacement", len(v.coldBlocks), len(v.retired))
		}
	})
	checkPatchVisible(t, p, want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("patched view differs from Run\n got: %+v\nwant: %+v", got, want)
	}
	if v.coldBlocks[double] == nil || v.retired[0].cold != v.coldBlocks[double] {
		t.Error("the retired block's replacement is not double's block in the rebuilt cold tier")
	}
	b := sharedCovering(core, double)[0]
	if want := clean + 2*uint64(DefaultThreshold)*uint64(b.totalSteps); v.Stats.InterpretedSteps != want {
		t.Errorf("view interpreted %d steps, want %d (the clean run's and two cold runs of double)", v.Stats.InterpretedSteps, want)
	}
	if cleanRun(t, p, core) != clean {
		t.Error("a fresh clone interprets more after the patched run")
	}
}
