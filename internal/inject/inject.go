// Package inject runs soft-error injection campaigns against programs
// executing under the dynamic binary translator: single transient bit flips
// in branch address offsets or condition flags (the paper's error model),
// with outcomes classified per branch-error category. The paper lists
// fault injection as future work; this package implements it and validates
// the coverage claims of Section 3 empirically.
//
// There is one replay engine and one checkpoint engine, and each serves
// two targets: a warm translator snapshot (the DBT techniques) and the
// program executed natively (the static CFCSS/ECCA baselines). A target
// only decides how one sample executes and how its fault is categorized;
// see target. Both kinds of warm state are one type, Prepared: Prepare
// (or Restore, from a published artifact) builds it once, Record gives it
// a reference log, and Run executes any number of campaigns on it, each
// on its own backend and engine. Execute is Prepare plus Run, and only
// this package tells a translated state from a native one.
package inject

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/ckpt"
	"repro/internal/comp"
	"repro/internal/cpu"
	"repro/internal/dbt"
	"repro/internal/errmodel"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/par"
)

// Outcome classifies one faulty run.
type Outcome int

// Outcomes.
const (
	// OutDetectedSW: a signature check reported the error.
	OutDetectedSW Outcome = iota
	// OutDetectedHW: the hardware protection trapped (wild fetch, memory
	// fault, divide by zero).
	OutDetectedHW
	// OutBenign: the program completed with correct output.
	OutBenign
	// OutSDC: the program completed with wrong output — silent data
	// corruption, the failure mode the techniques exist to prevent.
	OutSDC
	// OutHang: the run exceeded its step budget (e.g. an error that threw
	// the program into an infinite loop that the policy cannot report).
	OutHang
	NumOutcomes
)

var outcomeNames = [...]string{"detected-sw", "detected-hw", "benign", "SDC", "hang"}

// String names the outcome.
func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return "?"
}

// Record is one injected fault and its result.
type Record struct {
	// Sample is the campaign sample index this record came from. Records
	// are kept in sample order, so a report is comparable field-for-field
	// across worker counts.
	Sample   int
	Fault    cpu.Fault
	Outcome  Outcome
	Category errmodel.Category
	// Latency is the number of instructions between the fault firing and
	// detection (meaningful for detected outcomes): the error-report delay
	// the checking policies trade against speed.
	Latency uint64
}

// Agg accumulates outcome counts.
type Agg struct {
	Count [NumOutcomes]int
	Total int
}

func (a *Agg) add(o Outcome) {
	a.Count[o]++
	a.Total++
}

func (a *Agg) sum(o *Agg) {
	for i, n := range o.Count {
		a.Count[i] += n
	}
	a.Total += o.Total
}

// Detected returns software+hardware detections.
func (a *Agg) Detected() int { return a.Count[OutDetectedSW] + a.Count[OutDetectedHW] }

// Errors returns the number of injections that had any effect (everything
// except benign completions).
func (a *Agg) Errors() int { return a.Total - a.Count[OutBenign] }

// Coverage is the fraction of effective errors that were detected.
func (a *Agg) Coverage() float64 {
	if a.Errors() == 0 {
		return 1
	}
	return float64(a.Detected()) / float64(a.Errors())
}

// Report aggregates a campaign.
type Report struct {
	Program   string
	Technique string
	Policy    dbt.Policy
	Samples   int
	// SampleOffset is the campaign's first global sample index
	// (Config.SampleOffset); Records carry global indices. MergeReports
	// uses it to validate that shards tile a contiguous range.
	SampleOffset int
	NotFired     int
	ByCat        map[errmodel.Category]*Agg
	Totals       Agg
	// LatencySum/LatencyN give the mean detection latency.
	LatencySum uint64
	LatencyN   int
	// Records holds the individual runs when Config.KeepRecords is set,
	// sorted by Sample.
	Records []Record
	// Translator aggregates the translation work of the whole campaign:
	// the warm-up runs plus every sample clone's own work (wild-target
	// translations, re-chaining). Like the outcome counts it is a pure
	// function of (program, cfg minus Workers).
	Translator dbt.Stats
	// Compiled aggregates the block-compiled backend's work: the warm-up
	// compilation (including the snapshot freeze) plus every sample's
	// chain-slot transitions. Counter sums are worker-invariant, but they
	// legitimately differ between the replay and checkpoint engines (a
	// synthesized tail executes no blocks), so — like Workers and Elapsed
	// — FormatNormalized excludes them.
	Compiled comp.Stats
	// WarmTranslator/WarmCompiled are the warm-up baselines already folded
	// into Translator/Compiled (the snapshot's stats, or the static
	// freeze). Every shard of a split campaign repeats the identical
	// warm-up, so MergeReports subtracts the baseline from all shards but
	// the first to count it exactly once, as the unsharded run would.
	WarmTranslator dbt.Stats
	WarmCompiled   comp.Stats
	// Workers is the resolved worker count that ran the campaign and
	// Elapsed the wall-clock of the injection phase (warm-up excluded).
	// Neither influences the classified results.
	Workers int
	Elapsed time.Duration
	// Engine telemetry: how the checkpoint engine resolved each sample.
	// Executed samples ran their tail, or trapped on leaving the code at
	// their firing. The rest were synthesized as No Error faults:
	// ShortOffset for offset flips on a branch that fell through,
	// ShortLive for flag flips that kept the branch's direction.
	// Executed+ShortOffset+ShortLive == Samples under the checkpoint
	// engine; the replay engine executes everything. Like Workers/Elapsed
	// these never influence the classified results and are zeroed by
	// FormatNormalized. Rejoined counts the executed samples whose tail
	// rejoined the reference run and was synthesized from there on (a
	// subset of Executed). Each sample is resolved on its own, so all four
	// are a function of the campaign alone, whatever the worker count.
	Executed    int
	ShortOffset int
	ShortLive   int
	Rejoined    int
}

// Throughput returns classified runs per second of wall-clock.
func (r *Report) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Samples) / r.Elapsed.Seconds()
}

// MeanLatency returns the mean detection latency in instructions.
func (r *Report) MeanLatency() float64 {
	if r.LatencyN == 0 {
		return 0
	}
	return float64(r.LatencySum) / float64(r.LatencyN)
}

// DefaultMaxSteps bounds each injected run when Config.MaxSteps is zero
// (hang detection).
const DefaultMaxSteps = 50_000_000

// Options is the shared execution surface of every campaign entry point:
// the knobs selecting how work runs and is observed, as opposed to what is
// measured. It is embedded by inject.Config, core.Config (which aliases
// the type as core.Options) and bench.CoverageConfig, and internal/cli
// binds it to flags once for all the cmd tools. Field access promotes
// (cfg.Workers reads as before); keyed literals name it explicitly
// (Config{Options: Options{Workers: 4}}).
type Options struct {
	// Metrics, when non-nil, receives campaign metrics: outcome counters,
	// per-category detection-latency histograms, translator counters and
	// code-cache occupancy. The counters that restate the report are
	// published from the final report; what it lacks is observed per
	// sample into per-worker collector shards that flush with commutative
	// folds. Either way the exported snapshot is bit-identical for every
	// Workers value.
	Metrics *obs.Registry
	// Workers shards the samples across a goroutine pool; 0 means
	// GOMAXPROCS. Results are bit-identical for every worker count: each
	// sample derives its fault from (Seed, index) and runs on a private
	// clone of the warmed translator.
	Workers int
	// CkptInterval selects the checkpoint-and-resume engine. 0 disables it
	// (every sample replays the whole clean prefix); -1 derives the capture
	// spacing from the clean run length (ckpt.AutoInterval). The engine
	// records checkpoints during one clean reference run and restores each
	// sample at the nearest checkpoint before its fault site, executing
	// only the tail. Reports are byte-identical to full replay for every
	// Workers value. A positive value is a test-only spacing in machine
	// steps; the CLIs and the wire take only -1 and 0.
	CkptInterval int64
	// Backend selects the execution engine (step interpreter, or
	// block-compiled with direct chaining). The zero value BackendAuto is
	// the compiled backend. Classified reports are byte-identical across
	// backends; only wall-clock changes.
	Backend comp.Backend
	// Progress, when non-nil, receives live campaign progress: per-worker
	// atomic counters of finished samples and running outcome tallies. The
	// counters never feed back into the campaign, so enabling progress
	// leaves classified reports byte-identical.
	Progress *obs.Progress
	// Flight, when non-nil, receives a forensic dump for every anomalous
	// sample (SDC, hang): the sample is deterministically re-run with a
	// branch hook filling a fixed-size event ring, and the ring's tail is
	// written as one JSONL line keyed by the sample's derived seed. The
	// re-run happens off the campaign's critical state (a fresh snapshot
	// clone / machine), so reports stay byte-identical.
	Flight *obs.FlightRecorder
}

// Config parameterizes a campaign.
type Config struct {
	Technique dbt.Technique // nil: plain translation
	Policy    dbt.Policy
	Samples   int
	Seed      int64
	// SampleOffset shifts the campaign onto the global sample range
	// [SampleOffset, SampleOffset+Samples): sample-local index i derives
	// its fault from global index SampleOffset+i, exactly as the unsharded
	// campaign would. Shards of one large campaign run with the same Seed
	// and disjoint contiguous offsets, and MergeReports reassembles their
	// reports into the unsharded report byte-for-byte.
	SampleOffset int
	// MaxSteps bounds each run (hang detection). Default DefaultMaxSteps.
	MaxSteps uint64
	// KeepRecords retains every Record in the Report.
	KeepRecords bool
	// RegFaults switches the campaign to register-bit (data) faults: one
	// bit of a random guest register flips at a random machine step. These
	// are the faults the data-flow checking transform targets; the
	// control-flow techniques alone mostly miss them.
	RegFaults bool
	// Body forwards a body transform (data-flow checking) to the DBT.
	Body dbt.BodyTransform
	// Options is the shared execution surface (Metrics, Flight, Workers,
	// CkptInterval, ...), promoted so existing selector access keeps working.
	Options
}

// applyDefaults fills the zero-value knobs.
func (cfg *Config) applyDefaults() {
	if cfg.Samples <= 0 {
		cfg.Samples = 100
	}
	if cfg.SampleOffset < 0 {
		cfg.SampleOffset = 0
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = DefaultMaxSteps
	}
}

// deriveFault builds sample index's fault as a pure function of the
// campaign seed, the global sample index (the local index shifted by
// SampleOffset) and the clean-run geometry. Branch-site faults pick offset
// and flag bits in proportion to their site counts, mirroring the error
// model.
func deriveFault(cfg *Config, index int, branches, steps uint64) cpu.Fault {
	rng := newSampleRNG(cfg.Seed, cfg.SampleOffset+index)
	if cfg.RegFaults {
		return cpu.Fault{
			Kind:      cpu.FaultRegBit,
			StepIndex: rng.Uint64n(steps),
			Reg:       isa.Reg(rng.Intn(isa.NumGuestRegs)),
			Bit:       uint(rng.Intn(32)),
		}
	}
	f := cpu.Fault{BranchIndex: rng.Uint64n(branches)}
	if rng.Intn(isa.OffsetBits+isa.NumFlagBits) < isa.NumFlagBits {
		f.Kind = cpu.FaultFlagBit
		f.Bit = uint(rng.Intn(isa.NumFlagBits))
	} else {
		f.Kind = cpu.FaultOffsetBit
		f.Bit = uint(rng.Intn(isa.OffsetBits))
	}
	return f
}

// Add folds o into r: it sums every count — samples, not-fired faults,
// outcomes per category and in total, detection latency, translator and
// compiled-backend work, engine telemetry — and appends o's Records. It
// is the one fold of campaign results: a campaign's worker tallies, the
// shards MergeReports reassembles and the bench suite's workloads all go
// through it. What is not a count (identity, warm-up baselines, Workers,
// Elapsed) is the caller's to reconcile.
func (r *Report) Add(o *Report) {
	r.Samples += o.Samples
	r.NotFired += o.NotFired
	for c, a := range o.ByCat {
		dst := r.ByCat[c]
		if dst == nil {
			if r.ByCat == nil {
				r.ByCat = map[errmodel.Category]*Agg{}
			}
			dst = &Agg{}
			r.ByCat[c] = dst
		}
		dst.sum(a)
	}
	r.Totals.sum(&o.Totals)
	r.LatencySum += o.LatencySum
	r.LatencyN += o.LatencyN
	r.Records = append(r.Records, o.Records...)
	r.Translator.Add(o.Translator)
	r.Compiled.Add(o.Compiled)
	r.Executed += o.Executed
	r.ShortOffset += o.ShortOffset
	r.ShortLive += o.ShortLive
	r.Rejoined += o.Rejoined
}

// warmRunCap bounds the stabilization loop: chaining settles after a
// couple of runs and trace formation within a few more, so the cap only
// matters for pathological programs whose cache never stops churning.
const warmRunCap = 32

// Warm translates and stabilizes p under cfg's translator options: the
// cache is run until a clean execution neither changes the dynamic branch
// count nor touches translator state. Chaining turns dispatch stubs into
// jump instructions, which are themselves fault sites, so a cold run
// undercounts; and a snapshot that still churns on clean runs would leave
// the checkpoint engine nothing restorable. The loop is identical for
// every CkptInterval, so both engines share snapshot geometry — and so a
// session-cached snapshot reproduces a fresh campaign's warm-up exactly.
// It returns the frozen snapshot plus the final clean result, whose Steps,
// DirectBranches and Output are the reference geometry campaigns derive
// faults from and validate cached checkpoint logs against.
func Warm(p *isa.Program, cfg Config) (*dbt.Snapshot, *dbt.Result, error) {
	cfg.applyDefaults()
	d := dbt.New(p, dbt.Options{
		Technique: cfg.Technique,
		Policy:    cfg.Policy,
		Body:      cfg.Body,
		Backend:   cfg.Backend,
	})
	clean := d.Run(nil, cfg.MaxSteps)
	if clean.Stop.Reason != cpu.StopHalt {
		return nil, nil, fmt.Errorf("%s: clean run ended with %v", p.Name, clean.Stop)
	}
	for i := 0; i < warmRunCap; i++ {
		pre := d.StatsSnapshot()
		next := d.Run(nil, cfg.MaxSteps)
		if next.Stop.Reason != cpu.StopHalt {
			return nil, nil, fmt.Errorf("%s: warm run ended with %v", p.Name, next.Stop)
		}
		stable := next.DirectBranches == clean.DirectBranches &&
			!d.StatsSnapshot().Sub(pre).Structural()
		clean = next
		if stable {
			break
		}
	}
	return d.Snapshot(), clean, nil
}

// techName renders the technique label used by metric series and spans.
func techName(t dbt.Technique) string {
	if t == nil {
		return "none"
	}
	return t.Name()
}

// Run injects cfg.Samples faults into executions from the warm state and
// classifies every outcome, honoring ctx for cancellation: the one
// pipeline every entry point funnels into, for translated and native
// targets alike. It reads cfg's campaign fields, the backend and the
// engine included; the technique, policy and body are the state's. Under
// the checkpoint engine a state holding no log records one for this
// campaign, spaced by cfg.CkptInterval; a held log serves every spacing.
func (w *Prepared) Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg.applyDefaults()
	if w.static && cfg.RegFaults {
		return nil, fmt.Errorf("inject: AsStatic cannot inject register faults")
	}
	label, t := w.label, w.target(cfg.Backend)
	rep := &Report{
		Program:      w.prog.Name,
		Technique:    label,
		Policy:       w.policy,
		SampleOffset: cfg.SampleOffset,
		ByCat:        map[errmodel.Category]*Agg{},
		Workers:      par.Workers(cfg.Workers, cfg.Samples),
	}
	// Warm-up work; the worker tallies add each sample's own.
	rep.WarmTranslator, rep.WarmCompiled = t.baseline()
	rep.Translator, rep.Compiled = rep.WarmTranslator, rep.WarmCompiled

	c := &campaign{cfg: &cfg, prog: w.prog, label: label, base: rep.WarmTranslator, workers: make([]worker, rep.Workers)}
	if cfg.Metrics != nil {
		c.ns = seriesFor(label)
	}
	cfg.Progress.Begin(cfg.Samples, rep.Workers, progressLabels())
	start := time.Now()
	var err error
	if cfg.CkptInterval != 0 {
		err = c.runCkpt(ctx, t, w)
	} else {
		err = c.runReplay(ctx, t)
	}
	rep.Elapsed = time.Since(start)
	if err != nil {
		return nil, err
	}
	mg := phaseSpan(cfg.Metrics, label, "merge")
	for i := range c.workers {
		c.workers[i].addTo(rep)
		c.workers[i].c.FlushTo(cfg.Metrics)
	}
	if cfg.KeepRecords {
		slices.SortFunc(rep.Records, func(a, b Record) int { return cmp.Compare(a.Sample, b.Sample) })
	}
	mg.End()
	if cfg.Metrics != nil {
		publishCounts(cfg.Metrics, c.ns, rep, cfg.CkptInterval != 0)
		rep.Compiled.Publish(cfg.Metrics, label)
		t.publish(cfg.Metrics, label, rep)
	}
	return rep, nil
}

// campaign is one campaign's state while its samples run.
type campaign struct {
	cfg   *Config
	prog  *isa.Program
	label string
	ns    *sampleSeries // nil when metrics are off
	// base is the warm-up translator work an executed sample's stats
	// include.
	base dbt.Stats
	// The clean reference run: faults derive from its branch and step
	// counts, and outcomes classify against its output.
	want            []int32
	branches, steps uint64
	workers         []worker
}

// worker is one pool goroutine's state: the runner its samples execute on
// (and, under the checkpoint engine, its site reader and its replayer,
// from the first sample that needs each), the fault of its
// current sample, its metric collector (nil when metrics are off) and its
// tally — the counts of a partial Report, categories held in an array.
type worker struct {
	r     runner
	rp    *ckpt.Replayer
	sites *ckpt.SiteReader
	f     cpu.Fault
	c     *obs.Collector
	part  Report
	cats  [errmodel.NumCategories + 1]Agg
}

// addTo folds the worker's tally into rep, lending it its categories as
// a map for Add.
func (wk *worker) addTo(rep *Report) {
	part := wk.part
	part.ByCat = make(map[errmodel.Category]*Agg, len(wk.cats))
	for c := range wk.cats {
		if wk.cats[c].Total > 0 {
			part.ByCat[errmodel.Category(c)] = &wk.cats[c]
		}
	}
	rep.Add(&part)
}

// sampleRun is what executing one sample yields, whichever engine ran it:
// the outcome and the sample's own work.
type sampleRun struct {
	outcome Outcome
	// latency is the steps from the firing to the detection of a
	// detected outcome.
	latency   uint64
	stats     dbt.Stats // translator work, warm-up excluded
	comp      comp.Stats
	sigChecks uint64
	cacheSize int
	// short is how the checkpoint engine resolved the sample; always
	// shortNone under replay.
	short shortKind
}

// executed is the sampleRun of a sample whose run executed to its end.
func (c *campaign) executed(res *dbt.Result, f *cpu.Fault) sampleRun {
	s := sampleRun{
		outcome:   classifyOutcome(res, c.want),
		stats:     res.Stats.Sub(c.base),
		comp:      res.Comp,
		sigChecks: res.SigChecks,
		cacheSize: res.CacheSize,
	}
	if detected(s.outcome) {
		s.latency = res.Steps - f.FiredStep
	}
	return s
}

func detected(o Outcome) bool { return o == OutDetectedSW || o == OutDetectedHW }

// drain is the worker loop both engines share. Each worker claims the
// next sample (in order, or ascending when order is nil), derives its
// fault, executes it with exec, settles it into its tally and counts its
// progress. The replayers the checkpoint engine took on its first
// restores are released when the pool ends.
func (c *campaign) drain(ctx context.Context, t target, order []int, exec func(wk *worker) sampleRun) error {
	inj := phaseSpan(c.cfg.Metrics, c.label, "inject")
	defer inj.End()
	for w := range c.workers {
		wk := &c.workers[w]
		wk.r = t.runner()
		if c.cfg.Metrics != nil {
			wk.c = obs.NewCollector()
		}
	}
	err := par.ForEachShardCtx(ctx, c.cfg.Samples, len(c.workers), func(w, i int) error {
		if order != nil {
			i = order[i]
		}
		wk := &c.workers[w]
		wk.f = deriveFault(c.cfg, i, c.branches, c.steps)
		s := exec(wk)
		c.cfg.Progress.Observe(w, c.settle(wk, i, &s))
		return nil
	})
	for w := range c.workers {
		if rp := c.workers[w].rp; rp != nil {
			rp.Release()
		}
	}
	return err
}

// settle counts sample i's run into its worker's tally and collector and
// dumps an anomalous one to the flight recorder. It returns the sample's
// progress slot: its outcome, or NumOutcomes when the fault never fired.
func (c *campaign) settle(wk *worker, i int, s *sampleRun) int {
	part := &wk.part
	part.Samples++
	part.Translator.Add(s.stats)
	part.Compiled.Add(s.comp)
	switch s.short {
	case shortOffset:
		part.ShortOffset++
	case shortFlag:
		part.ShortLive++
	case shortRejoin:
		part.Executed++
		part.Rejoined++
	case shortTrap:
		part.Executed++
		if wk.c != nil {
			wk.c.Add(c.ns.settledTraps, 1)
		}
	default:
		part.Executed++
	}
	f := &wk.f
	if !f.Fired {
		part.NotFired++
		return int(NumOutcomes)
	}
	rec := Record{
		Sample:   c.cfg.SampleOffset + i,
		Fault:    *f,
		Outcome:  s.outcome,
		Category: errmodel.CatF, // a settled trap left the code
	}
	if s.short != shortTrap {
		// The sample's runner holds no clone of a settled trap.
		rec.Category = wk.r.category(f)
	}
	if detected(rec.Outcome) {
		rec.Latency = s.latency
		part.LatencySum += rec.Latency
		part.LatencyN++
	}
	wk.cats[rec.Category].add(rec.Outcome)
	part.Totals.add(rec.Outcome)
	if c.cfg.KeepRecords {
		part.Records = append(part.Records, rec)
	}
	if wk.c != nil {
		observeSample(wk.c, c.ns, &rec, s.sigChecks, s.cacheSize)
	}
	c.dumpFlight(wk.r, &rec)
	return int(rec.Outcome)
}

// runReplay is the full-replay engine: every sample executes the guest
// from entry on a fresh runner start. The clean reference is a
// post-warm-up run of its own, so both engines classify against the same
// geometry regardless of how warm-up converged.
func (c *campaign) runReplay(ctx context.Context, t target) error {
	record := phaseSpan(c.cfg.Metrics, c.label, "record")
	ref := replay(t.runner(), nil, c.cfg.MaxSteps)
	record.End()
	if ref.Stop.Reason != cpu.StopHalt {
		return fmt.Errorf("%s: clean run ended with %v", c.prog.Name, ref.Stop)
	}
	c.want, c.branches, c.steps = ref.Output, ref.DirectBranches, ref.Steps
	if c.branches == 0 {
		return fmt.Errorf("%s: no branches to fault", c.prog.Name)
	}
	return c.drain(ctx, t, nil, func(wk *worker) sampleRun {
		return c.executed(replay(wk.r, &wk.f, c.cfg.MaxSteps), &wk.f)
	})
}

func classifyOutcome(res *dbt.Result, want []int32) Outcome {
	switch {
	case res.Stop.Reason == cpu.StopReport:
		return OutDetectedSW
	case res.Stop.Reason.IsHardwareTrap():
		return OutDetectedHW
	case res.Stop.Reason == cpu.StopOutOfSteps:
		return OutHang
	case res.Stop.Reason == cpu.StopHalt:
		if equalOutput(res.Output, want) {
			return OutBenign
		}
		return OutSDC
	default:
		// TrapOut cannot escape the run loop; anything else is a hang
		// equivalent.
		return OutHang
	}
}

func equalOutput(a, b []int32) bool {
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

// classifyCategory maps the fired fault onto the paper's branch-error
// categories, using the code-cache layout (faults strike translated
// branches, so same/other block is judged in cache coordinates).
func classifyCategory(d *dbt.DBT, f *cpu.Fault) errmodel.Category {
	if c, ok := kindCategory(f); ok {
		return c
	}
	target, ok := d.Locate(f.FaultTarget)
	if !ok {
		return errmodel.CatF
	}
	from, _ := d.Locate(f.FaultIP)
	return errmodel.Landing(target == from, f.FaultTarget == target.CacheStart)
}

// kindCategory classifies the faults every target classifies alike: a
// register fault is Data, a flag fault is A when it changes the branch
// direction and No Error when it does not, and an offset flip on a
// not-taken branch is No Error. It reports false for an offset flip on a
// taken branch, which only the target's block layout can classify.
func kindCategory(f *cpu.Fault) (errmodel.Category, bool) {
	switch {
	case f.Kind == cpu.FaultRegBit:
		return errmodel.CatData, true
	case f.Kind == cpu.FaultFlagBit && f.FaultTaken != f.CleanTaken:
		return errmodel.CatA, true
	case f.Kind == cpu.FaultFlagBit, !f.CleanTaken:
		return errmodel.CatNoError, true
	}
	return 0, false
}
