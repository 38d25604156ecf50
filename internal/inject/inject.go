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
// see target.
package inject

import (
	"context"
	"fmt"
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
	// in sample order.
	Records []Record
	// Translator aggregates the translation work of the whole campaign:
	// the warm-up runs plus every sample clone's own work (wild-target
	// translations, re-chaining). Like the outcome counts it is a pure
	// function of (program, cfg minus Workers).
	Translator dbt.Stats
	// Compiled aggregates the block-compiled backend's work: the warm-up
	// compilation (including the snapshot freeze) plus every sample's
	// chain-slot transitions. Counter sums legitimately differ between the
	// replay and checkpoint engines (a synthesized tail executes no
	// blocks), and, for a native checkpoint campaign, with the worker
	// split (a tail memo hit executes none either), so — like Workers and
	// Elapsed — FormatNormalized excludes them.
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
	// Executed samples ran their tail; ShortOffset samples were synthesized
	// by the not-taken-offset rule and ShortLive by the liveness prune
	// (Executed+ShortOffset+ShortLive == Samples under the checkpoint
	// engine; the replay engine executes everything). Like Workers/Elapsed
	// these never influence the classified results and are zeroed by
	// FormatNormalized. Rejoined counts the executed samples whose tail
	// rejoined the reference run and was synthesized from there on, plus
	// the native samples whose restart tail a worker's tail memo
	// synthesized (a subset of Executed). The memo is per worker, so
	// Rejoined, like Executed steps, depends on how the samples split
	// across workers: it is a function of the campaign and Workers.
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
	// code-cache occupancy. Samples observe into per-worker collector
	// shards merged with commutative folds, so the exported snapshot is
	// bit-identical for every Workers value.
	Metrics *obs.Registry
	// Workers shards the samples across a goroutine pool; 0 means
	// GOMAXPROCS. Results are bit-identical for every worker count: each
	// sample derives its fault from (Seed, index) and runs on a private
	// clone of the warmed translator.
	Workers int
	// CkptInterval selects the checkpoint-and-resume engine. 0 disables it
	// (every sample replays the whole clean prefix); -1 picks a capture
	// interval automatically from the clean run length; positive values set
	// the interval in machine steps. The engine records checkpoints during
	// one clean reference run and restores each sample at the nearest
	// checkpoint before its fault site, executing only the tail. Reports
	// are byte-identical to full replay for every Workers value.
	CkptInterval int64
	// Backend selects the execution engine (step interpreter, or
	// block-compiled with direct chaining). The zero value BackendAuto
	// resolves to the compiled backend. Classified reports are
	// byte-identical across backends; only wall-clock changes.
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
	// TraceThreshold forwards to the DBT options.
	TraceThreshold int
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
func deriveFault(cfg *Config, index int, branches, steps uint64) *cpu.Fault {
	rng := newSampleRNG(cfg.Seed, cfg.SampleOffset+index)
	if cfg.RegFaults {
		return &cpu.Fault{
			Kind:      cpu.FaultRegBit,
			StepIndex: rng.Uint64n(steps),
			Reg:       isa.Reg(rng.Intn(isa.NumGuestRegs)),
			Bit:       uint(rng.Intn(32)),
		}
	}
	f := &cpu.Fault{BranchIndex: rng.Uint64n(branches)}
	if rng.Intn(isa.OffsetBits+isa.NumFlagBits) < isa.NumFlagBits {
		f.Kind = cpu.FaultFlagBit
		f.Bit = uint(rng.Intn(isa.NumFlagBits))
	} else {
		f.Kind = cpu.FaultOffsetBit
		f.Bit = uint(rng.Intn(isa.OffsetBits))
	}
	return f
}

// sampleResult is one sample's classified outcome, produced by a worker
// and merged into the Report in sample order.
type sampleResult struct {
	fired bool
	rec   Record
	// stats is the clone's own translation work: its final stats minus
	// the snapshot baseline.
	stats dbt.Stats
	// comp is the clone's own compiled-backend work (clone views start
	// from zero stats, so no baseline subtraction is needed).
	comp comp.Stats
	// short records how the checkpoint engine resolved the sample
	// (executed vs synthesized); always shortNone under replay.
	short shortKind
}

// merge folds per-sample results into the report in index order, so the
// aggregates (and Records) never depend on which worker ran which sample.
func (r *Report) merge(results []sampleResult, keepRecords bool) {
	for i := range results {
		s := &results[i]
		r.Translator.Add(s.stats)
		r.Compiled.Add(s.comp)
		switch s.short {
		case shortOffset:
			r.ShortOffset++
		case shortLive:
			r.ShortLive++
		case shortRejoin:
			r.Executed++
			r.Rejoined++
		default:
			r.Executed++
		}
		if !s.fired {
			r.NotFired++
			continue
		}
		rec := s.rec
		if rec.Outcome == OutDetectedSW || rec.Outcome == OutDetectedHW {
			r.LatencySum += rec.Latency
			r.LatencyN++
		}
		agg := r.ByCat[rec.Category]
		if agg == nil {
			agg = &Agg{}
			r.ByCat[rec.Category] = agg
		}
		agg.add(rec.Outcome)
		r.Totals.add(rec.Outcome)
		if keepRecords {
			r.Records = append(r.Records, rec)
		}
	}
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
		Technique:      cfg.Technique,
		Policy:         cfg.Policy,
		TraceThreshold: cfg.TraceThreshold,
		Body:           cfg.Body,
		Backend:        cfg.Backend,
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

// run executes the campaign on target t under the report label: the one
// pipeline every entry point funnels into, for translated and native
// targets alike. cleanSteps is the clean run length the checkpoint
// interval is derived from; log is an optional pre-recorded reference.
func (cfg Config) run(ctx context.Context, p *isa.Program, label string, t target, cleanSteps uint64, log *ckpt.Log) (*Report, error) {
	rep := &Report{
		Program:      p.Name,
		Technique:    label,
		Policy:       cfg.Policy,
		Samples:      cfg.Samples,
		SampleOffset: cfg.SampleOffset,
		ByCat:        map[errmodel.Category]*Agg{},
		Workers:      par.Workers(cfg.Workers, cfg.Samples),
	}
	// Warm-up work; merge adds the per-sample deltas.
	rep.Translator, rep.Compiled = t.baseline()
	rep.WarmTranslator = rep.Translator
	rep.WarmCompiled = rep.Compiled

	cfg.Progress.Begin(cfg.Samples, rep.Workers, progressLabels())
	shards := newShards(cfg.Metrics, rep.Workers)
	var ns *sampleSeries
	if shards != nil {
		ns = seriesFor(label)
	}
	results := make([]sampleResult, cfg.Samples)
	var err error
	if cfg.CkptInterval != 0 {
		err = runCkptSamples(ctx, p, &cfg, rep, t, label, ns, shards, results, cleanSteps, log)
	} else {
		err = runReplaySamples(ctx, p, &cfg, rep, t, label, ns, shards, results)
	}
	if err != nil {
		return nil, err
	}
	mg := phaseSpan(cfg.Metrics, label, "merge")
	rep.merge(results, cfg.KeepRecords)
	flushShards(shards, cfg.Metrics)
	mg.End()
	if cfg.Metrics != nil {
		rep.Compiled.Publish(cfg.Metrics, label)
		t.publish(cfg.Metrics, label, rep)
	}
	return rep, nil
}

// runReplaySamples is the full-replay engine: every sample executes the
// guest from entry on a fresh runner start. The clean reference is a
// post-warm-up run of its own, so both engines classify against the same
// geometry regardless of how warm-up converged.
func runReplaySamples(ctx context.Context, p *isa.Program, cfg *Config, rep *Report, t target,
	label string, ns *sampleSeries, shards []*obs.Collector, results []sampleResult) error {
	start := time.Now()
	base := rep.WarmTranslator
	record := phaseSpan(cfg.Metrics, label, "record")
	ref := reference(t.runner(), cfg.MaxSteps)
	record.End()
	if ref.Stop.Reason != cpu.StopHalt {
		return fmt.Errorf("%s: clean run ended with %v", p.Name, ref.Stop)
	}
	want := ref.Output
	branches := ref.DirectBranches
	steps := ref.Steps
	if branches == 0 {
		return fmt.Errorf("%s: no branches to fault", p.Name)
	}
	runners := make([]runner, rep.Workers)
	for w := range runners {
		runners[w] = t.runner()
	}
	injSpan := phaseSpan(cfg.Metrics, label, "inject")
	err := par.ForEachShardCtx(ctx, cfg.Samples, rep.Workers, func(w, i int) error {
		r := runners[w]
		defer observeProgress(cfg.Progress, w, &results[i])
		defer dumpFlight(cfg, r, p.Name, label, i, want, &results[i])
		var c *obs.Collector
		if shards != nil {
			c = shards[w]
		}
		f := deriveFault(cfg, i, branches, steps)
		m, res := r.start(f)
		if res == nil {
			res = r.finish(m, r.advance(m, cfg.MaxSteps))
		}
		settle(r, c, ns, base, res, f, cfg.SampleOffset+i, want, &results[i])
		return nil
	})
	injSpan.End()
	rep.Elapsed = time.Since(start)
	return err
}

// settle classifies one executed sample from its result into out and the
// worker's shard c (nil when metrics are off; ns names its series). base
// is the warm-up translator work the result's stats include.
func settle(r runner, c *obs.Collector, ns *sampleSeries, base dbt.Stats, res *dbt.Result,
	f *cpu.Fault, sample int, want []int32, out *sampleResult) {
	out.stats = res.Stats.Sub(base)
	out.comp = res.Comp
	if !f.Fired {
		if c != nil {
			observeNotFired(c, ns)
		}
		return
	}
	rec := Record{
		Sample:   sample,
		Fault:    *f,
		Outcome:  classifyOutcome(res, want),
		Category: r.category(f),
	}
	if rec.Outcome == OutDetectedSW || rec.Outcome == OutDetectedHW {
		rec.Latency = res.Steps - f.FiredStep
	}
	if c != nil {
		observeSample(c, ns, &rec, res.SigChecks, res.CacheSize)
	}
	out.fired = true
	out.rec = rec
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
