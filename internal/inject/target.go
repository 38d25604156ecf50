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
// begin a sample; advance, finish, category and compStats refer to the
// sample begun last.
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

// snapRunner holds the current sample's snapshot clone.
type snapRunner struct {
	snap *dbt.Snapshot
	d    *dbt.DBT
}

func (r *snapRunner) start(f *cpu.Fault) (*cpu.Machine, *dbt.Result) {
	r.d = r.snap.NewDBT()
	return r.d.Start(f)
}

func (r *snapRunner) resume(m *cpu.Machine, pt *ckpt.Point) {
	r.d = r.snap.NewDBT()
	r.d.Resume(m, pt.Prefix)
}

func (r *snapRunner) advance(m *cpu.Machine, maxSteps uint64) cpu.Stop {
	return r.d.Advance(m, maxSteps)
}

func (r *snapRunner) finish(m *cpu.Machine, stop cpu.Stop) *dbt.Result { return r.d.Finish(m, stop) }

func (r *snapRunner) category(f *cpu.Fault) errmodel.Category { return classifyCategory(r.d, f) }

func (r *snapRunner) compStats() comp.Stats { return r.d.CompStats() }

// Native is the warm state of a native target, built once per session by
// WarmNative and shared read-only by every campaign over the same program.
// It keeps only what is small and costly to recompute: the block starts
// the clean run entered on an adaptive compiled engine, and the flag half of
// the program's liveness (computed on first use). The CFG and the engine
// tables are rebuilt per campaign, which keeps a long-lived session's heap
// close to the bare program's.
type Native struct {
	prog       *isa.Program
	starts     []uint32 // block starts the clean run entered, in address order
	cleanSteps uint64

	liveOnce sync.Once
	live     *live.Info // flag half only: native runs inject no register faults
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
	cpu.TraceRunOutcome(cfg.Trace, m, stop)
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
	return &Native{prog: p, starts: eng.Reached(), cleanSteps: m.Steps}, clean, nil
}

// liveness returns the flag liveness of the program g was built from,
// computing it on the first call.
func (n *Native) liveness(g *cfg.Graph) *live.Info {
	n.liveOnce.Do(func() { n.live = live.Analyze(g).FlagsOnly() })
	return n.live
}

// nativeTarget runs the program directly on the machine (no translator):
// the statically instrumented CFCSS/ECCA baselines and unprotected native
// runs. Faulty branch targets are classified against the program's own
// CFG. For the compiled backend, a frozen engine is shared read-only by
// every worker. The engine compiles only the warm state's starts (the
// blocks the clean run reached, not every CFG block start), so a sample
// that strays off the clean path runs its cold blocks on the step
// interpreter until its own view promotes them. Each sample takes a fresh
// per-view engine clone so its counters and cold tier stay its own and
// merge worker-invariantly.
type nativeTarget struct {
	warm    *Native
	g       *cfg.Graph
	backend comp.Backend
	eng     *comp.Engine // frozen; nil for the step backend
	trace   *obs.Tracer
}

func newNativeTarget(n *Native, backend comp.Backend, trace *obs.Tracer) *nativeTarget {
	p := n.prog
	t := &nativeTarget{warm: n, g: cfg.Build(p), backend: backend, trace: trace}
	if backend.Compiled() {
		t.eng = comp.NewEngine(p.Code, nil, 0)
		t.eng.Freeze(n.starts)
	}
	return t
}

func (t *nativeTarget) runner() runner {
	return &nativeRunner{t: t, m: cpu.Machine{Costs: cpu.DefaultCosts()}}
}

func (t *nativeTarget) record(interval, maxSteps uint64) (*ckpt.Log, error) {
	return ckpt.RecordStatic(t.warm.prog, interval, maxSteps)
}

func (t *nativeTarget) liveness() *live.Info { return t.warm.liveness(t.g) }

// baseline is the one-time compilation work (the freeze), credited to the
// campaign report the way snapshot warm-up work is for translated runs.
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

func (r *nativeRunner) advance(m *cpu.Machine, maxSteps uint64) cpu.Stop {
	return comp.Run(r.t.backend, r.v, m, r.t.warm.prog.Code, maxSteps)
}

func (r *nativeRunner) finish(m *cpu.Machine, stop cpu.Stop) *dbt.Result {
	cpu.TraceRunOutcome(r.t.trace, m, stop)
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
	if f.Kind == cpu.FaultFlagBit {
		if f.FaultTaken != f.CleanTaken {
			return errmodel.CatA
		}
		return errmodel.CatNoError
	}
	if !f.CleanTaken {
		return errmodel.CatNoError
	}
	return errmodel.Classify(r.t.g, f.FaultIP, f.FaultTarget)
}

func (r *nativeRunner) compStats() comp.Stats {
	if r.v == nil {
		return comp.Stats{}
	}
	return r.v.Stats
}
