package bench

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/session"
)

// The bench suite: every performance figure and the coverage matrix as
// one streamed run. RunSuite is the only figure dispatcher: cfc-bench
// prints the table frames of its run, POST /v1/bench serves all of its
// frames. It builds every workload through a warm-session registry (each
// program materializes once and is shared across all figures and any
// concurrent campaign sessions) and emits its results incrementally as
// SuiteFrames.

// DefaultSuiteFigures is the figure set a zero SuiteConfig runs.
var DefaultSuiteFigures = []string{"dbt", "12", "14", "15", "ablate", "coverage"}

// SuiteConfig parameterizes one suite run.
type SuiteConfig struct {
	// Scale is the workload dynamic scale (0: 0.05, the serving default —
	// full-scale figures belong to cfc-bench batch runs).
	Scale float64
	// Samples sizes the injection campaigns of the coverage, dfc and
	// latency figures (0: 200).
	Samples int
	// Seed seeds those campaigns.
	Seed int64
	// Figures selects which figures run, in order (nil:
	// DefaultSuiteFigures). Valid names: FigureNames.
	Figures []string
	// Sessions is the warm-session registry programs build through; nil
	// uses a private in-memory registry.
	Sessions *session.Registry
	// Options is the shared execution surface. Metrics additionally
	// receives one bench_figure span per figure; Workers fans each
	// figure's per-workload jobs.
	core.Options
}

// SuiteFrame is one NDJSON record of a streamed suite run.
type SuiteFrame struct {
	// Kind: "start" (figure begins; Configs lists its columns), "row"
	// (one benchmark / technique as it completes), "table" (the figure's
	// formatted table, Text), "span" (the figure's wall-clock, Seconds),
	// "error" (the figure failed, Error).
	Kind   string `json:"kind"`
	Figure string `json:"figure,omitempty"`
	// Benchmark / Configs / Values carry the slowdown, overhead, ablation
	// and policy rows: Values[i] is the row's value under the figure's
	// Configs[i].
	Benchmark string    `json:"benchmark,omitempty"`
	Configs   []string  `json:"configs,omitempty"`
	Values    []float64 `json:"values,omitempty"`
	// Technique / Coverage carry coverage-matrix and dfc rows (Coverage
	// is the detected fraction of effective errors, 0..1; the start
	// frame's Configs lists the techniques).
	Technique string  `json:"technique,omitempty"`
	Coverage  float64 `json:"coverage,omitempty"`
	// Cached marks a coverage row whose cells all came out of the graph
	// cell cache — byte-identical results, no campaign executed.
	Cached  bool    `json:"cached,omitempty"`
	Note    string  `json:"note,omitempty"`
	Text    string  `json:"text,omitempty"`
	Seconds float64 `json:"seconds,omitempty"`
	Error   string  `json:"error,omitempty"`
}

// RunSuite runs the selected figures in order, streaming frames through
// emit. Rows arrive as each benchmark's measurement completes (emit is
// serialized internally, so it may be called from worker goroutines'
// callbacks); every figure ends with its formatted table and a span
// frame. An unknown figure name fails the run before any work; a failed
// figure emits an error frame and aborts the suite.
func RunSuite(ctx context.Context, cfg SuiteConfig, emit func(SuiteFrame) error) error {
	if cfg.Scale == 0 {
		cfg.Scale = 0.05
	}
	if cfg.Samples <= 0 {
		cfg.Samples = 200
	}
	names := cfg.Figures
	if names == nil {
		names = DefaultSuiteFigures
	}
	if err := CheckFigures(names); err != nil {
		return err
	}
	if cfg.Sessions == nil {
		cfg.Sessions = session.NewRegistry(session.Config{Metrics: cfg.Metrics})
	}

	// emit must be serialized: row callbacks fire from the figure
	// generators' worker goroutines. A failed emit (client gone) poisons
	// the stream; the next between-rows check aborts the suite.
	var mu sync.Mutex
	var emitErr error
	send := func(f SuiteFrame) {
		mu.Lock()
		defer mu.Unlock()
		if emitErr != nil {
			return
		}
		emitErr = emit(f)
	}
	broken := func() error {
		mu.Lock()
		defer mu.Unlock()
		return emitErr
	}

	for _, name := range names {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := broken(); err != nil {
			return err
		}
		fig := figureByName(name)
		start := time.Now()
		send(SuiteFrame{Kind: "start", Figure: name, Configs: fig.configs, Note: fig.note})
		fcfg := cfg
		if fig.maxScale > 0 {
			fcfg.Scale = min(fcfg.Scale, fig.maxScale)
		}
		text, err := fig.run(ctx, fcfg, func(f SuiteFrame) {
			f.Kind, f.Figure = "row", name
			send(f)
		})
		if err != nil {
			send(SuiteFrame{Kind: "error", Figure: name, Error: err.Error()})
			return err
		}
		send(SuiteFrame{Kind: "table", Figure: name, Text: text})
		d := time.Since(start)
		cfg.Metrics.RecordSpan(fmt.Sprintf("bench_figure{figure=%q}", name), d)
		send(SuiteFrame{Kind: "span", Figure: name, Seconds: d.Seconds()})
	}
	return broken()
}

// figure is one entry of the suite's figure table: its start frame's
// metadata and its generator. run measures the figure at cfg (building
// through cfg.Sessions), streams its rows through row (Kind and Figure
// are filled in), publishes its gauges on cfg.Metrics and returns the
// formatted table.
type figure struct {
	name    string
	configs []string
	note    string
	// maxScale caps the figure's scale (0: no cap): the campaign figures
	// run the program once per sample, so larger runs would take minutes
	// for no extra insight.
	maxScale float64
	run      func(ctx context.Context, cfg SuiteConfig, row func(SuiteFrame)) (string, error)
}

// figures is the one mapping from figure name to generator.
var figures = []figure{
	{name: "dbt", configs: []string{"overhead"}, note: "uninstrumented translator overhead vs native",
		run: func(ctx context.Context, cfg SuiteConfig, row func(SuiteFrame)) (string, error) {
			rows, avg, err := DBTBaseline(cfg.Scale, cfg.Workers, cfg.Sessions.Program, func(r BaselineRow) {
				row(SuiteFrame{Benchmark: r.Name, Values: []float64{r.Overhead}})
			})
			if err != nil {
				return "", err
			}
			PublishBaseline(cfg.Metrics, rows, avg)
			return FormatBaseline(rows, avg), nil
		}},
	{name: "12", configs: []string{"RCF", "EdgCF", "ECF"}, note: "slowdown, Jcc update, ALLBB policy",
		run: func(ctx context.Context, cfg SuiteConfig, row func(SuiteFrame)) (string, error) {
			t, err := Figure12(cfg.Scale, cfg.Workers, cfg.Sessions.Program, slowdownRow(row))
			if err != nil {
				return "", err
			}
			PublishSlowdownTable(cfg.Metrics, "12", t)
			return FormatSlowdownTable(t), nil
		}},
	{name: "14", configs: []string{"RCF", "EdgCF", "ECF"}, note: "Jcc vs CMOVcc update styles",
		run: func(ctx context.Context, cfg SuiteConfig, row func(SuiteFrame)) (string, error) {
			t, err := Figure14(cfg.Scale, cfg.Workers, cfg.Sessions.Program, func(style string, r SlowdownRow) {
				row(SuiteFrame{Benchmark: r.Name, Values: r.Slowdown, Note: style})
			})
			if err != nil {
				return "", err
			}
			PublishFigure14(cfg.Metrics, t)
			return FormatFigure14(t), nil
		}},
	{name: "15", configs: []string{"ALLBB", "RET-BE", "RET", "END"}, note: "RCF under the checking policies",
		run: func(ctx context.Context, cfg SuiteConfig, row func(SuiteFrame)) (string, error) {
			t, err := Figure15(cfg.Scale, cfg.Workers, cfg.Sessions.Program, slowdownRow(row))
			if err != nil {
				return "", err
			}
			PublishSlowdownTable(cfg.Metrics, "15", t)
			return FormatSlowdownTable(t), nil
		}},
	{name: "ablate", configs: []string{"slowdown"}, note: "design-choice ablations vs the default translator",
		run: func(ctx context.Context, cfg SuiteConfig, row func(SuiteFrame)) (string, error) {
			rows, err := Ablations(cfg.Scale, cfg.Workers, cfg.Sessions.Program)
			if err != nil {
				return "", err
			}
			for _, r := range rows {
				row(SuiteFrame{Benchmark: r.Name, Values: []float64{r.Slowdown}, Note: r.Note})
			}
			PublishAblations(cfg.Metrics, rows)
			return FormatAblations(rows), nil
		}},
	{name: "coverage", configs: check.Names(nil), note: "fault-injection coverage matrix",
		run: func(ctx context.Context, cfg SuiteConfig, row func(SuiteFrame)) (string, error) {
			reports, err := CoverageMatrix(ctx, CoverageConfig{
				Scale: cfg.Scale, Samples: cfg.Samples, Seed: cfg.Seed,
				Sessions: cfg.Sessions, Options: cfg.Options,
				OnReport: func(r *inject.Report, cached bool) {
					row(SuiteFrame{Technique: r.Technique, Coverage: r.Totals.Coverage(), Cached: cached})
				},
			})
			if err != nil {
				return "", err
			}
			PublishCoverage(cfg.Metrics, "coverage", reports)
			return FormatCoverageMatrix(reports), nil
		}},
	{name: "dfc", configs: []string{"none", "RCF", "RCF+DFC", "RCF+DFC+cmp"},
		note: "register-fault coverage of data-flow checking", maxScale: 0.1,
		run: func(ctx context.Context, cfg SuiteConfig, row func(SuiteFrame)) (string, error) {
			reports, err := DataFlowCoverage(ctx, cfg.Scale, cfg.Samples, cfg.Seed, cfg.Options, cfg.Sessions.Program)
			if err != nil {
				return "", err
			}
			for _, r := range reports {
				row(SuiteFrame{Technique: r.Technique, Coverage: r.Totals.Coverage()})
			}
			PublishCoverage(cfg.Metrics, "dfc", reports)
			return FormatDataFlowCoverage(reports), nil
		}},
	{name: "latency", configs: []string{"slowdown", "coverage", "mean-latency"},
		note: "RCF policy trade-off: slowdown vs coverage vs report latency", maxScale: 0.3,
		run: func(ctx context.Context, cfg SuiteConfig, row func(SuiteFrame)) (string, error) {
			rows, err := PolicyLatency(ctx, cfg.Scale, cfg.Samples, cfg.Seed, cfg.Options, cfg.Sessions.Program)
			if err != nil {
				return "", err
			}
			for _, r := range rows {
				row(SuiteFrame{Benchmark: r.Policy.String(), Values: []float64{r.Slowdown, r.Coverage, r.MeanLatency}})
			}
			PublishPolicyLatency(cfg.Metrics, rows)
			return FormatPolicyLatency(rows), nil
		}},
}

// slowdownRow streams a slowdown table's rows.
func slowdownRow(row func(SuiteFrame)) func(SlowdownRow) {
	return func(r SlowdownRow) { row(SuiteFrame{Benchmark: r.Name, Values: r.Slowdown}) }
}

// FigureNames lists every figure the suite can run, in table order.
func FigureNames() []string {
	names := make([]string, len(figures))
	for i, f := range figures {
		names[i] = f.name
	}
	return names
}

// figureByName returns the named figure's table entry, nil if none.
func figureByName(name string) *figure {
	for i := range figures {
		if figures[i].name == name {
			return &figures[i]
		}
	}
	return nil
}

// CheckFigures rejects a figure list naming a figure the suite lacks.
func CheckFigures(names []string) error {
	for _, name := range names {
		if figureByName(name) == nil {
			return fmt.Errorf("unknown figure %q (valid: %s)", name, strings.Join(FigureNames(), ", "))
		}
	}
	return nil
}
