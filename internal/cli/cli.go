// Package cli binds the execution-surface flags shared by every cmd/
// tool: the observability set (-trace, -metrics, -progress, -flight,
// -flight-depth), the profiling pair (-cpuprofile, -memprofile), the
// campaign knobs (-workers, -ckpt-interval, -backend) that core.Options
// carries, and the -graph-cache cell cache selector. Binding them in one place keeps the six CLIs and cfc-serve
// presenting an identical surface, and Options() hands the parsed result
// straight to any campaign entry point that embeds core.Options.
package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/comp"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
)

// App is the shared CLI surface. Zero value is ready to bind; set Workers
// or CkptInterval first to change a tool's flag defaults (cfc-inject
// defaults -ckpt-interval to -1, everything else to 0).
//
// Usage mirrors obs.CLI, which App embeds: BindFlags before flag.Parse,
// Open after it, Close on the way out.
type App struct {
	obs.CLI

	// Workers is the parsed -workers value (0 = GOMAXPROCS).
	Workers int
	// CkptInterval is the parsed -ckpt-interval value (0 full replay,
	// -1 auto-sized checkpoints, >0 explicit step interval).
	CkptInterval int64
	// SampleOffset is the parsed -sample-offset value: the campaign's
	// first global sample index, for manual sharding (shard k of a split
	// campaign derives the same per-sample faults it would have in the
	// unsharded run; inject.MergeReports reassembles the shards).
	SampleOffset int
	// CPUProfile / MemProfile are the parsed pprof output paths; empty
	// disables the respective profile.
	CPUProfile string
	MemProfile string
	// Backend is the parsed -backend value; Open validates it. Empty is
	// "auto" (the block-compiled engine — every backend is byte-identical,
	// only wall-clock changes).
	Backend string
	// Progress is the parsed -progress interval. Non-zero starts a stderr
	// ticker printing live campaign progress (done/total, throughput, ETA,
	// outcome tallies); the tracker never feeds back into campaigns, so
	// results stay byte-identical.
	Progress time.Duration
	// Flight / FlightDepth are the parsed -flight output path and ring
	// depth. A non-empty path arms the per-sample flight recorder: every
	// anomalous outcome (SDC, hang) dumps its last FlightDepth events as
	// one JSONL line.
	Flight      string
	FlightDepth int
	// GraphCache is the parsed -graph-cache value: "off" (or empty)
	// disables the campaign cell cache, "on" keeps it in memory only,
	// anything else is a directory entries persist under. Tools that want
	// a different default (cfc-serve follows -cache-dir) rewrite the
	// field between flag.Parse and Open.
	GraphCache string

	backend  comp.Backend
	graph    *graph.Cache
	cpuFile  *os.File
	progress *obs.Progress
	flight   *obs.FlightRecorder
	tickStop chan struct{}
	tickDone chan struct{}
}

// BindFlags registers the shared flags on fs, using the current field
// values as defaults.
func (a *App) BindFlags(fs *flag.FlagSet) {
	a.CLI.BindFlags(fs)
	fs.IntVar(&a.Workers, "workers", a.Workers, "worker goroutines (0 = GOMAXPROCS)")
	fs.Int64Var(&a.CkptInterval, "ckpt-interval", a.CkptInterval,
		"checkpoint interval in steps (-1 auto, 0 full replay)")
	fs.IntVar(&a.SampleOffset, "sample-offset", a.SampleOffset,
		"first global sample index of this campaign shard (manual fan-out; merge shards with matching seeds)")
	fs.StringVar(&a.CPUProfile, "cpuprofile", a.CPUProfile, "write a pprof CPU profile to `file`")
	fs.StringVar(&a.MemProfile, "memprofile", a.MemProfile, "write a pprof heap profile to `file` on exit")
	if a.Backend == "" {
		a.Backend = comp.BackendAuto.String()
	}
	fs.StringVar(&a.Backend, "backend", a.Backend,
		"execution backend: auto, step or compile (all byte-identical)")
	fs.DurationVar(&a.Progress, "progress", a.Progress,
		"print live campaign progress to stderr every `interval` (0 = off)")
	fs.StringVar(&a.Flight, "flight", a.Flight,
		"write per-sample flight-recorder dumps (JSONL) for anomalous outcomes to `file`")
	if a.FlightDepth == 0 {
		a.FlightDepth = obs.DefaultFlightDepth
	}
	fs.IntVar(&a.FlightDepth, "flight-depth", a.FlightDepth,
		"flight-recorder ring depth: last `n` events kept per dumped sample")
	if a.GraphCache == "" {
		a.GraphCache = "off"
	}
	fs.StringVar(&a.GraphCache, "graph-cache", a.GraphCache,
		"campaign cell cache: off, on (memory only) or a `directory` to persist under")
}

// Open materializes the observability sinks, starts the progress ticker
// and, when -cpuprofile was given, starts CPU profiling. It shadows the
// embedded obs.CLI.Open so every tool picks the whole surface up for
// free.
func (a *App) Open() error {
	b, err := comp.ParseBackend(a.Backend)
	if err != nil {
		return err
	}
	a.backend = b
	switch a.GraphCache {
	case "", "off":
		a.graph = nil
	case "on":
		a.graph = graph.New("")
	default:
		a.graph = graph.New(a.GraphCache)
	}
	if err := a.CLI.Open(); err != nil {
		return err
	}
	// Callers that fatal on an Open error never reach Close, so every
	// error path below tears down whatever already opened.
	fail := func(err error) error {
		if a.cpuFile != nil {
			pprof.StopCPUProfile()
			a.cpuFile.Close()
			a.cpuFile = nil
		}
		if a.flight != nil {
			a.flight.Close()
			a.flight = nil
		}
		a.CLI.Close()
		return err
	}
	if a.CPUProfile != "" {
		f, err := os.Create(a.CPUProfile)
		if err != nil {
			return fail(fmt.Errorf("open cpuprofile: %w", err))
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(fmt.Errorf("start cpuprofile: %w", err))
		}
		a.cpuFile = f
	}
	if a.Flight != "" {
		f, err := os.Create(a.Flight)
		if err != nil {
			return fail(fmt.Errorf("open flight: %w", err))
		}
		a.flight = obs.NewFlightRecorder(f, a.FlightDepth)
	}
	// The ticker starts after the last fallible step, so Open never
	// returns an error with the goroutine still running.
	if a.Progress > 0 {
		a.progress = obs.NewProgress()
		a.tickStop = make(chan struct{})
		a.tickDone = make(chan struct{})
		go a.tick()
	}
	return nil
}

// tick prints the progress line at the configured interval until Close.
func (a *App) tick() {
	defer close(a.tickDone)
	t := time.NewTicker(a.Progress)
	defer t.Stop()
	for {
		select {
		case <-a.tickStop:
			return
		case <-t.C:
			if s := a.progress.Snapshot(); s.Total > 0 {
				fmt.Fprintf(os.Stderr, "progress: %s\n", s)
			}
		}
	}
}

// Close stops the progress ticker (printing a final line), closes the
// flight recorder, stops the CPU profile, writes the heap profile if
// requested, and flushes the observability sinks.
func (a *App) Close() error {
	var first error
	if a.tickStop != nil {
		close(a.tickStop)
		<-a.tickDone
		a.tickStop, a.tickDone = nil, nil
		if s := a.progress.Snapshot(); s.Total > 0 {
			fmt.Fprintf(os.Stderr, "progress: %s\n", s)
		}
	}
	if a.flight != nil {
		if n := a.flight.Dumps(); n > 0 {
			fmt.Fprintf(os.Stderr, "flight: %d anomalous sample(s) dumped to %s\n", n, a.Flight)
		}
		if err := a.flight.Close(); err != nil && first == nil {
			first = fmt.Errorf("flight: %w", err)
		}
		a.flight = nil
	}
	if a.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := a.cpuFile.Close(); err != nil && first == nil {
			first = fmt.Errorf("cpuprofile: %w", err)
		}
		a.cpuFile = nil
	}
	if a.MemProfile != "" {
		f, err := os.Create(a.MemProfile)
		if err != nil {
			if first == nil {
				first = fmt.Errorf("open memprofile: %w", err)
			}
		} else {
			runtime.GC() // settle live-heap accounting before the snapshot
			err = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil && first == nil {
				first = fmt.Errorf("memprofile: %w", err)
			}
		}
	}
	if err := a.CLI.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// Graph returns the campaign cell cache -graph-cache selected, nil when
// disabled. Call after Open.
func (a *App) Graph() *graph.Cache { return a.graph }

// Options returns the parsed execution surface. Call after Open: the
// tracer, registry, progress tracker and flight recorder are nil until
// then.
func (a *App) Options() core.Options {
	return core.Options{
		Trace:        a.Tracer(),
		Metrics:      a.Registry(),
		Workers:      a.Workers,
		CkptInterval: a.CkptInterval,
		Backend:      a.backend,
		Progress:     a.progress,
		Flight:       a.flight,
	}
}
