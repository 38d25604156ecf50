package inject

import (
	"fmt"
	"sync"

	"repro/internal/cfg"
	"repro/internal/ckpt"
	"repro/internal/comp"
	"repro/internal/cpu"
	"repro/internal/dbt"
	"repro/internal/errmodel"
	"repro/internal/isa"
	"repro/internal/live"
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
	// record performs the checkpointed clean reference run.
	record(interval, maxSteps uint64) (*ckpt.Log, error)
	// liveness is the flag/register liveness the dead-bit prune consults,
	// shared read-only by every worker.
	liveness() *live.Info
	// baseline is the warm-up work already done (snapshot stats, or the
	// native freeze), credited to the report once.
	baseline() (dbt.Stats, comp.Stats)
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
	// memo is the worker's tail memo, or nil when the runner keeps none
	// (translated runs and the step backend; see memo.go).
	memo() *tailMemo
}

// reference executes one clean run from the program entry on r.
func reference(r runner, maxSteps uint64) *dbt.Result {
	m, res := r.start(nil)
	if res == nil {
		res = r.finish(m, r.advance(m, maxSteps))
	}
	return res
}

// snapTarget runs every sample on a private clone of a warm snapshot.
type snapTarget struct{ snap *dbt.Snapshot }

func (t snapTarget) runner() runner { return &snapRunner{snap: t.snap} }

func (t snapTarget) record(interval, maxSteps uint64) (*ckpt.Log, error) {
	return ckpt.Record(t.snap, interval, maxSteps)
}

func (t snapTarget) liveness() *live.Info { return t.snap.Liveness() }

func (t snapTarget) baseline() (dbt.Stats, comp.Stats) { return t.snap.Stats(), t.snap.CompStats() }

func (t snapTarget) publish(reg *obs.Registry, label string, rep *Report) {
	rep.Translator.Publish(reg, label)
	reg.Gauge(seriesName("dbt_code_cache_instrs", label)).Max(int64(t.snap.CacheLen()))
}

// snapRunner holds the current sample's snapshot clone and the clone's
// stats right after resume.
type snapRunner struct {
	snap    *dbt.Snapshot
	d       *dbt.DBT
	resumed dbt.Stats
}

func (r *snapRunner) start(f *cpu.Fault) (*cpu.Machine, *dbt.Result) {
	r.d = r.snap.NewDBT()
	return r.d.Start(f)
}

func (r *snapRunner) resume(m *cpu.Machine, pt *ckpt.Point) {
	r.d = r.snap.NewDBT()
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

// memo is nil: a translated guest does not start at its code cache's
// address 0, so its tails have no entry to land on.
func (r *snapRunner) memo() *tailMemo { return nil }

// Native is the warm state of a native target, built once per session by
// WarmNative and shared read-only by every campaign over the same program.
// It keeps what campaigns read, sized to what they use: the block starts
// the clean run entered on an adaptive compiled engine, the program's CFG
// block starts for classification (4 bytes a block, not the CFG), the flag
// half of its liveness, and one engine frozen over the reached starts,
// built by the first compiled-backend campaign. Campaigns take per-sample
// views of that engine, so a warm campaign pays for its samples, not for
// its program.
type Native struct {
	prog       *isa.Program
	starts     []uint32 // block starts the clean run entered, in address order
	blocks     errmodel.Blocks
	live       *live.Info // flag half only: native runs inject no register faults
	cleanSteps uint64

	engOnce sync.Once
	eng     *comp.Engine // frozen over starts; nil until a compiled campaign asks
}

// WarmNative performs p's clean native run on cfg's backend and returns
// the warm state campaigns start from, plus the clean result, whose
// Steps, DirectBranches and Output are the reference geometry. A compiled
// backend runs on an unfrozen engine and keeps the block starts it
// entered, so campaigns freeze only the code the clean run reached, as a
// translator snapshot freezes only the code its warm-up translated.
func WarmNative(p *isa.Program, cfg Config) (*Native, *dbt.Result, error) {
	cfg.applyDefaults()
	var eng *comp.Engine
	if cfg.Backend.Compiled() {
		eng = comp.NewEngine(p.Code, nil, 0)
	}
	m := cpu.New()
	m.Reset(p)
	stop := comp.Run(cfg.Backend, eng, m, p.Code, cfg.MaxSteps)
	if stop.Reason != cpu.StopHalt {
		return nil, nil, fmt.Errorf("%s: clean run ended with %v", p.Name, stop)
	}
	clean := &dbt.Result{
		Stop:           stop,
		Cycles:         m.Cycles,
		Steps:          m.Steps,
		Output:         m.Output,
		DirectBranches: m.DirectBranches,
		SigChecks:      m.SigChecks,
	}
	return newNative(p, eng.Reached(), m.Steps), clean, nil
}

// newNative analyzes p's CFG once, keeping its block starts and flag
// liveness, around the clean run's reached starts and length.
func newNative(p *isa.Program, starts []uint32, cleanSteps uint64) *Native {
	g := cfg.Build(p)
	return &Native{
		prog:       p,
		starts:     starts,
		blocks:     errmodel.BlocksOf(g),
		live:       live.Analyze(g).FlagsOnly(),
		cleanSteps: cleanSteps,
	}
}

// Record performs the checkpointed clean reference run of the warm
// program. After every interval boundary it also captures the first block
// start of the engine its campaigns freeze, where a rejoining sample's
// watch can see the point.
func (n *Native) Record(interval, maxSteps uint64) (*ckpt.Log, error) {
	return ckpt.RecordStatic(n.prog, n.starts, interval, maxSteps)
}

// engine returns the engine frozen over the reached starts, compiling it
// on the first call. Its Stats are the freeze's work.
func (n *Native) engine() *comp.Engine {
	n.engOnce.Do(func() {
		n.eng = comp.NewEngine(n.prog.Code, nil, 0)
		n.eng.Freeze(n.starts)
	})
	return n.eng
}

// nativeTarget runs the program directly on the machine (no translator):
// the statically instrumented CFCSS/ECCA baselines and unprotected native
// runs. Faulty branch targets are classified against the program's own
// CFG block starts. For the compiled backend, the warm state's frozen
// engine is shared read-only by every worker of every campaign. It
// compiles only the blocks the clean run reached, not every CFG block
// start, so a sample that strays off the clean path runs its cold blocks
// on the step interpreter until its own view promotes them. Each sample
// takes a fresh per-view engine clone so its counters and cold tier stay
// its own and merge worker-invariantly.
type nativeTarget struct {
	warm    *Native
	backend comp.Backend
	eng     *comp.Engine // frozen; nil for the step backend
}

func newNativeTarget(n *Native, backend comp.Backend) *nativeTarget {
	t := &nativeTarget{warm: n, backend: backend}
	if backend.Compiled() {
		t.eng = n.engine()
	}
	return t
}

func (t *nativeTarget) runner() runner {
	return &nativeRunner{t: t, m: cpu.Machine{Costs: cpu.DefaultCosts()}}
}

func (t *nativeTarget) record(interval, maxSteps uint64) (*ckpt.Log, error) {
	return t.warm.Record(interval, maxSteps)
}

func (t *nativeTarget) liveness() *live.Info { return t.warm.live }

// baseline is the one-time compilation work (the freeze), credited to
// every campaign's report the way snapshot warm-up work is for translated
// runs.
func (t *nativeTarget) baseline() (dbt.Stats, comp.Stats) {
	if t.eng == nil {
		return dbt.Stats{}, comp.Stats{}
	}
	return dbt.Stats{}, t.eng.Stats
}

// publish adds nothing: native runs have no translator or code cache.
func (t *nativeTarget) publish(*obs.Registry, string, *Report) {}

// nativeRunner holds the machine start resets in place, the current
// sample's engine view and the Result it finishes into, so a sample
// allocates no more than its fresh memory image. A compiled-backend
// runner also keeps the worker's tail memo, made on first use.
type nativeRunner struct {
	t    *nativeTarget
	m    cpu.Machine
	view comp.Engine
	v    *comp.Engine // &view; nil for the step backend
	res  dbt.Result
	tm   *tailMemo
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

func (r *nativeRunner) advance(m *cpu.Machine, maxSteps uint64) cpu.Stop {
	return comp.Run(r.t.backend, r.v, m, r.t.warm.prog.Code, maxSteps)
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

func (r *nativeRunner) memo() *tailMemo {
	if r.tm == nil && r.t.eng != nil {
		p := r.t.warm.prog
		r.tm = &tailMemo{entry: p.Entry, code: p.Code, view: &r.view}
	}
	return r.tm
}
