// Package cli binds the execution-surface flags of the cmd/ tools: every
// tool built on App takes -metrics, -cpuprofile and -memprofile, and adds
// only the flag groups it reads (see Group). Binding them in one place
// keeps each flag's name, default and help the same in every tool, and
// Options() hands the parsed result straight to any campaign entry point
// that embeds core.Options.
package cli

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/comp"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Group selects flags BindFlags registers beyond the observability and
// profiling flags every tool takes.
type Group uint8

// Flag groups, combined with |.
const (
	Workers  Group = 1 << iota // -workers
	Campaign                   // -ckpt-interval, -backend, -progress, -flight, -flight-depth
	Shard                      // -sample-offset
	Graph                      // -graph-cache
)

// App is the shared CLI surface. Zero value is ready to bind; set Workers
// or CkptInterval first to change a tool's flag defaults (cfc-inject
// defaults -ckpt-interval to -1, everything else to 0). Open reads an
// empty field, bound or not, as its flag's default.
//
// Usage: BindFlags before flag.Parse, Open after it, Close on the way
// out.
type App struct {
	// MetricsPath is the parsed -metrics output path; empty disables the
	// registry. A ".prom" suffix selects the Prometheus text format,
	// anything else JSON.
	MetricsPath string
	// Workers is the parsed -workers value (0 = GOMAXPROCS).
	Workers int
	// CkptInterval is the parsed -ckpt-interval value: the engine, 0 full
	// replay or -1 checkpoints auto-spaced from the clean run. Open
	// refuses any other value (core.CheckCkptInterval).
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
	// "compile" (the block-compiled engine — every backend is byte-identical,
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
	// anything else is a directory entries persist under. A tool that
	// wants a different default (cfc-serve defaults to "on") sets the
	// field before BindFlags.
	GraphCache string

	backend     comp.Backend
	graph       *graph.Cache
	registry    *obs.Registry
	metricsFile *os.File
	cpuFile     *os.File
	progress    *obs.Progress
	flight      *obs.FlightRecorder
	tickStop    chan struct{}
	tickDone    chan struct{}
}

// BindFlags registers the observability and profiling flags and the
// given groups on fs, using the current field values as defaults.
func (a *App) BindFlags(fs *flag.FlagSet, groups Group) {
	fs.StringVar(&a.MetricsPath, "metrics", a.MetricsPath,
		"write a metrics snapshot to `file` (.prom = Prometheus text, else JSON)")
	fs.StringVar(&a.CPUProfile, "cpuprofile", a.CPUProfile, "write a pprof CPU profile to `file`")
	fs.StringVar(&a.MemProfile, "memprofile", a.MemProfile, "write a pprof heap profile to `file` on exit")
	if groups&Workers != 0 {
		fs.IntVar(&a.Workers, "workers", a.Workers, "worker goroutines (0 = GOMAXPROCS)")
	}
	if groups&Campaign != 0 {
		fs.Int64Var(&a.CkptInterval, "ckpt-interval", a.CkptInterval,
			"injection engine: -1 checkpoints (spacing derived from the clean run), 0 full replay")
		fs.StringVar(&a.Backend, "backend", cmp.Or(a.Backend, comp.BackendAuto.String()),
			"execution backend: compile or step (byte-identical reports)")
		fs.DurationVar(&a.Progress, "progress", a.Progress,
			"print live campaign progress to stderr every `interval` (0 = off)")
		fs.StringVar(&a.Flight, "flight", a.Flight,
			"write per-sample flight-recorder dumps (JSONL) for anomalous outcomes to `file`")
		fs.IntVar(&a.FlightDepth, "flight-depth", cmp.Or(a.FlightDepth, obs.DefaultFlightDepth),
			"flight-recorder ring depth: last `n` events kept per dumped sample")
	}
	if groups&Shard != 0 {
		fs.IntVar(&a.SampleOffset, "sample-offset", a.SampleOffset,
			"first global sample index of this campaign shard (manual fan-out; merge shards with matching seeds)")
	}
	if groups&Graph != 0 {
		fs.StringVar(&a.GraphCache, "graph-cache", cmp.Or(a.GraphCache, "off"),
			"campaign cell cache: off, on (memory only) or a `directory` to persist under")
	}
}

// Open checks the engine and backend, creates every output file the
// flags name (metrics, CPU profile, flight dumps), so a bad value or path
// fails before any work runs, then starts CPU profiling and the progress
// ticker.
func (a *App) Open() error {
	if err := core.CheckCkptInterval(a.CkptInterval); err != nil {
		return err
	}
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
	if a.MetricsPath != "" {
		f, err := os.Create(a.MetricsPath)
		if err != nil {
			return fmt.Errorf("open metrics: %w", err)
		}
		a.metricsFile = f
		a.registry = obs.NewRegistry()
	}
	// Callers that fatal on an Open error never reach Close, so every
	// error path below tears down whatever already opened.
	fail := func(err error) error {
		if a.metricsFile != nil {
			a.metricsFile.Close()
			a.metricsFile, a.registry = nil, nil
		}
		if a.cpuFile != nil {
			pprof.StopCPUProfile()
			a.cpuFile.Close()
			a.cpuFile = nil
		}
		if a.flight != nil {
			a.flight.Close()
			a.flight = nil
		}
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
// requested, and writes the metrics snapshot.
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
	if a.metricsFile != nil {
		snap := a.registry.Snapshot()
		var err error
		if strings.HasSuffix(a.MetricsPath, ".prom") {
			err = snap.WritePrometheus(a.metricsFile)
		} else {
			err = snap.WriteJSON(a.metricsFile)
		}
		if cerr := a.metricsFile.Close(); err == nil {
			err = cerr
		}
		a.metricsFile = nil
		if err != nil && first == nil {
			first = fmt.Errorf("metrics: %w", err)
		}
	}
	return first
}

// Registry returns the metrics registry, or nil when -metrics was not
// given. Call after Open.
func (a *App) Registry() *obs.Registry { return a.registry }

// Graph returns the campaign cell cache -graph-cache selected, nil when
// disabled. Call after Open.
func (a *App) Graph() *graph.Cache { return a.graph }

// Options returns the parsed execution surface. Call after Open: the
// registry, progress tracker and flight recorder are nil until then.
func (a *App) Options() core.Options {
	return core.Options{
		Metrics:      a.registry,
		Workers:      a.Workers,
		CkptInterval: a.CkptInterval,
		Backend:      a.backend,
		Progress:     a.progress,
		Flight:       a.flight,
	}
}
