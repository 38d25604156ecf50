package inject

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/ckpt"
	"repro/internal/comp"
	"repro/internal/cpu"
	"repro/internal/dbt"
	"repro/internal/errmodel"
	"repro/internal/isa"
	"repro/internal/obs"
)

// target is what a campaign injects faults into: a warm translator
// snapshot (snapTarget) or the program executed natively (nativeTarget).
// The replay engine, the checkpoint engine and the flight recorder are
// written once against it; a target only decides how one sample executes
// and how its fault is categorized.
type target interface {
	// runner returns a sample runner for one worker.
	runner() runner
	// baseline is the warm-up work already done (snapshot stats, or the
	// native freeze), credited to the report once.
	baseline() (dbt.Stats, comp.Stats)
	// code is the code a sample starts executing (the snapshot's cache,
	// or the program): its length bounds where a branch can jump without
	// trapping.
	code() []isa.Instr
	// publish exports the target's own end-of-campaign series.
	publish(reg *obs.Registry, label string, rep *Report)
}

// runner executes one worker's samples, one at a time. start and resume
// begin a sample; the other methods refer to the sample begun last.
type runner interface {
	// start returns a machine at the program entry with f planted, or a
	// non-nil Result when the program cannot even start. A native runner
	// resets one machine in place, valid until the next start.
	start(f *cpu.Fault) (*cpu.Machine, *dbt.Result)
	// resume begins a sample on a machine restored at checkpoint pt.
	resume(m *cpu.Machine, pt *ckpt.Point)
	// advance executes until a terminal stop or the absolute step budget.
	advance(m *cpu.Machine, maxSteps uint64) cpu.Stop
	// finish packages the sample's result. A native runner reuses one
	// Result whose Output aliases the machine's, valid until the next
	// finish.
	finish(m *cpu.Machine, stop cpu.Stop) *dbt.Result
	// category maps the fired fault onto the paper's branch-error
	// categories.
	category(f *cpu.Fault) errmodel.Category
	// compStats is the sample's own compiled-backend work so far.
	compStats() comp.Stats
	// watch arms the sample engine's watch on a block entry or guard
	// continuation until a soft step deadline (nil regs disarms; see
	// comp.Engine.Watch): advance then returns cpu.StopWatch at the entry
	// or at the deadline.
	watch(ip uint32, regs *[isa.NumRegs]int32, until uint64)
	// blockStart reports whether the sample engine's watch can fire at ip
	// (a compiled block entry or guard continuation; see
	// comp.Engine.BlockStart).
	blockStart(ip uint32) bool
	// tailWork is the translator work since resume (zero for native runs).
	tailWork() dbt.Stats
}

// replay executes one run from the program entry on r with f planted (nil:
// a clean run).
func replay(r runner, f *cpu.Fault, maxSteps uint64) *dbt.Result {
	m, res := r.start(f)
	if res == nil {
		res = r.finish(m, r.advance(m, maxSteps))
	}
	return res
}

// snapTarget runs every sample on a private clone of a warm snapshot, on
// the campaign's backend.
type snapTarget struct {
	snap    *dbt.Snapshot
	backend comp.Backend
}

func (t snapTarget) runner() runner { return &snapRunner{t: t} }

// baseline credits the snapshot's compiled work (its freeze) only to a
// campaign whose clones run compiled.
func (t snapTarget) baseline() (dbt.Stats, comp.Stats) {
	if !t.backend.Compiled() {
		return t.snap.Stats(), comp.Stats{}
	}
	return t.snap.Stats(), t.snap.CompStats()
}

func (t snapTarget) code() []isa.Instr { return t.snap.Code() }

func (t snapTarget) publish(reg *obs.Registry, label string, rep *Report) {
	rep.Translator.Publish(reg, label)
	reg.Gauge(seriesName("dbt_code_cache_instrs", label)).Max(int64(t.snap.CacheLen()))
}

// snapRunner holds the current sample's snapshot clone and the clone's
// stats right after resume.
type snapRunner struct {
	t       snapTarget
	d       *dbt.DBT
	resumed dbt.Stats
}

func (r *snapRunner) start(f *cpu.Fault) (*cpu.Machine, *dbt.Result) {
	r.d = r.t.snap.NewDBTOn(r.t.backend)
	return r.d.Start(f)
}

func (r *snapRunner) resume(m *cpu.Machine, pt *ckpt.Point) {
	r.d = r.t.snap.NewDBTOn(r.t.backend)
	r.d.Resume(m, pt.Prefix)
	r.resumed = r.d.StatsSnapshot()
}

func (r *snapRunner) advance(m *cpu.Machine, maxSteps uint64) cpu.Stop {
	return r.d.Advance(m, maxSteps)
}

func (r *snapRunner) finish(m *cpu.Machine, stop cpu.Stop) *dbt.Result { return r.d.Finish(m, stop) }

func (r *snapRunner) category(f *cpu.Fault) errmodel.Category { return classifyCategory(r.d, f) }

func (r *snapRunner) compStats() comp.Stats { return r.d.CompStats() }

func (r *snapRunner) watch(ip uint32, regs *[isa.NumRegs]int32, until uint64) {
	r.d.Watch(ip, regs, until)
}

func (r *snapRunner) blockStart(ip uint32) bool { return r.d.BlockStart(ip) }

func (r *snapRunner) tailWork() dbt.Stats { return r.d.StatsSnapshot().Sub(r.resumed) }

// warmNative performs the clean native run of an AsStatic state on c's
// backend and keeps what campaigns read, sized to what they use. A
// compiled backend runs on an unfrozen engine and keeps the block starts
// it entered, so campaigns freeze only the code the clean run reached, as
// a translator snapshot freezes only the code its warm-up translated. The
// program's CFG is analyzed once, for its block starts (4 bytes a block),
// which classify faulty branch targets.
func (w *Prepared) warmNative(c Config) (*dbt.Result, error) {
	p := w.prog
	var eng *comp.Engine
	if c.Backend.Compiled() {
		eng = comp.NewEngine(p.Code, nil, 0)
	}
	m := cpu.New()
	m.Reset(p)
	stop := comp.Run(c.Backend, eng, m, p.Code, c.MaxSteps)
	if stop.Reason != cpu.StopHalt {
		return nil, fmt.Errorf("%s: clean run ended with %v", p.Name, stop)
	}
	w.starts, w.blocks = eng.Reached(), errmodel.BlocksOf(cfg.Build(p))
	return &dbt.Result{Stop: stop, Steps: m.Steps}, nil
}

// engine returns the engine frozen over the reached starts, compiling it
// on the first compiled campaign's call. Its Stats are the freeze's work.
func (w *Prepared) engine() *comp.Engine {
	w.engOnce.Do(func() {
		w.eng = comp.NewEngine(w.prog.Code, nil, 0)
		w.eng.Freeze(w.starts)
	})
	return w.eng
}

// nativeTarget runs the program directly on the machine (no translator):
// the statically instrumented CFCSS/ECCA baselines and unprotected native
// runs. Faulty branch targets are classified against the program's own
// CFG block starts. For the compiled backend, the warm state's frozen
// engine (Prepared.engine) is shared read-only by every worker of every
// campaign. It compiles only the blocks the clean run reached, not every
// CFG block start, so a sample that strays off the clean path runs its
// cold blocks on the step interpreter until its own view promotes them.
// Each sample takes a fresh per-view engine clone so its counters and
// cold tier stay its own and merge worker-invariantly.
type nativeTarget struct {
	warm *Prepared
	eng  *comp.Engine // frozen; nil for the step backend
}

func (t *nativeTarget) runner() runner {
	return &nativeRunner{t: t, m: cpu.Machine{Costs: cpu.DefaultCosts()}}
}

// baseline is the one-time compilation work (the freeze), credited to
// every campaign's report the way snapshot warm-up work is for translated
// runs.
func (t *nativeTarget) baseline() (dbt.Stats, comp.Stats) {
	if t.eng == nil {
		return dbt.Stats{}, comp.Stats{}
	}
	return dbt.Stats{}, t.eng.Stats
}

func (t *nativeTarget) code() []isa.Instr { return t.warm.prog.Code }

// publish adds nothing: native runs have no translator or code cache.
func (t *nativeTarget) publish(*obs.Registry, string, *Report) {}

// nativeRunner holds the machine start resets in place, the current
// sample's engine view and the Result it finishes into, so a sample
// allocates no more than its fresh memory image.
type nativeRunner struct {
	t    *nativeTarget
	m    cpu.Machine
	view comp.Engine
	v    *comp.Engine // &view; nil for the step backend
	res  dbt.Result
}

func (r *nativeRunner) start(f *cpu.Fault) (*cpu.Machine, *dbt.Result) {
	m := &r.m
	*m = cpu.Machine{Costs: m.Costs, Output: m.Output}
	m.Reset(r.t.warm.prog)
	m.Fault = f
	r.resume(m, nil)
	return m, nil
}

func (r *nativeRunner) resume(*cpu.Machine, *ckpt.Point) {
	if r.t.eng != nil {
		r.view = *r.t.eng.Clone()
		r.v = &r.view
	}
}

// advance runs on the sample's view, or with none (the step backend) on
// the step interpreter.
func (r *nativeRunner) advance(m *cpu.Machine, maxSteps uint64) cpu.Stop {
	return r.v.Run(m, r.t.warm.prog.Code, maxSteps)
}

func (r *nativeRunner) finish(m *cpu.Machine, stop cpu.Stop) *dbt.Result {
	r.res = dbt.Result{
		Stop:           stop,
		Cycles:         m.Cycles,
		Steps:          m.Steps,
		Output:         m.Output,
		DirectBranches: m.DirectBranches,
		SigChecks:      m.SigChecks,
		Comp:           r.compStats(),
	}
	return &r.res
}

func (r *nativeRunner) category(f *cpu.Fault) errmodel.Category {
	if c, ok := kindCategory(f); ok {
		return c
	}
	return r.t.warm.blocks.Classify(f.FaultIP, f.FaultTarget)
}

func (r *nativeRunner) compStats() comp.Stats {
	if r.v == nil {
		return comp.Stats{}
	}
	return r.v.Stats
}

func (r *nativeRunner) watch(ip uint32, regs *[isa.NumRegs]int32, until uint64) {
	r.v.Watch(ip, regs, until)
}

func (r *nativeRunner) blockStart(ip uint32) bool { return r.v.BlockStart(ip) }

func (r *nativeRunner) tailWork() dbt.Stats { return dbt.Stats{} }
