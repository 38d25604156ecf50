package bench

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/session"
)

// The bench suite: every performance figure and the coverage matrix by
// name. RunSuite is the only figure dispatcher; cfc-bench prints what it
// writes.

// SuiteConfig parameterizes one suite run.
type SuiteConfig struct {
	// Scale is the workload dynamic scale (0: 0.05).
	Scale float64
	// Samples sizes the injection campaigns of the coverage, dfc and
	// latency figures (0: 200).
	Samples int
	// Seed seeds those campaigns.
	Seed int64
	// Figures selects which figures run, in order. Valid names:
	// FigureNames.
	Figures []string
	// Options is the shared execution surface. Metrics additionally
	// receives one bench_figure span per figure and the figures' gauges;
	// Workers fans each figure's per-workload jobs.
	core.Options
}

// RunSuite runs the selected figures in order and writes each one's
// formatted table to w, followed by a blank line, as the figure
// completes. Every workload builds once per scale through a private
// warm-session registry shared by all the figures. An unknown figure
// name fails the run before any work.
func RunSuite(ctx context.Context, cfg SuiteConfig, w io.Writer) error {
	if err := CheckFigures(cfg.Figures); err != nil {
		return err
	}
	if cfg.Scale == 0 {
		cfg.Scale = 0.05
	}
	if cfg.Samples <= 0 {
		cfg.Samples = 200
	}
	reg := session.NewRegistry(session.Config{Metrics: cfg.Metrics})
	for _, name := range cfg.Figures {
		fig := figureByName(name)
		start := time.Now()
		fcfg := cfg
		if fig.maxScale > 0 {
			fcfg.Scale = min(fcfg.Scale, fig.maxScale)
		}
		text, err := fig.run(ctx, fcfg, reg)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w, text); err != nil {
			return err
		}
		cfg.Metrics.RecordSpan(fmt.Sprintf("bench_figure{figure=%q}", name), time.Since(start))
	}
	return nil
}

// figure is one entry of the suite's figure table. run measures the
// figure at cfg, building through reg, publishes its gauges on
// cfg.Metrics and returns the formatted table.
type figure struct {
	name string
	// maxScale caps the figure's scale (0: no cap): the campaign figures
	// run the program once per sample, so larger runs would take minutes
	// for no extra insight.
	maxScale float64
	run      func(ctx context.Context, cfg SuiteConfig, reg *session.Registry) (string, error)
}

// figures is the one mapping from figure name to generator.
var figures = []figure{
	{name: "dbt", run: func(ctx context.Context, cfg SuiteConfig, reg *session.Registry) (string, error) {
		rows, avg, err := DBTBaseline(cfg.Scale, cfg.Workers, reg.Program)
		if err != nil {
			return "", err
		}
		PublishBaseline(cfg.Metrics, rows, avg)
		return FormatBaseline(rows, avg), nil
	}},
	{name: "12", run: func(ctx context.Context, cfg SuiteConfig, reg *session.Registry) (string, error) {
		t, err := Figure12(cfg.Scale, cfg.Workers, reg.Program)
		if err != nil {
			return "", err
		}
		PublishSlowdownTable(cfg.Metrics, "12", t)
		return FormatSlowdownTable(t), nil
	}},
	{name: "14", run: func(ctx context.Context, cfg SuiteConfig, reg *session.Registry) (string, error) {
		t, err := Figure14(cfg.Scale, cfg.Workers, reg.Program)
		if err != nil {
			return "", err
		}
		PublishFigure14(cfg.Metrics, t)
		return FormatFigure14(t), nil
	}},
	{name: "15", run: func(ctx context.Context, cfg SuiteConfig, reg *session.Registry) (string, error) {
		t, err := Figure15(cfg.Scale, cfg.Workers, reg.Program)
		if err != nil {
			return "", err
		}
		PublishSlowdownTable(cfg.Metrics, "15", t)
		return FormatSlowdownTable(t), nil
	}},
	{name: "ablate", run: func(ctx context.Context, cfg SuiteConfig, reg *session.Registry) (string, error) {
		rows, err := Ablations(cfg.Scale, cfg.Workers, reg.Program)
		if err != nil {
			return "", err
		}
		PublishAblations(cfg.Metrics, rows)
		return FormatAblations(rows), nil
	}},
	{name: "coverage", run: func(ctx context.Context, cfg SuiteConfig, reg *session.Registry) (string, error) {
		reports, err := CoverageMatrix(ctx, CoverageConfig{
			Scale: cfg.Scale, Samples: cfg.Samples, Seed: cfg.Seed,
			Sessions: reg, Options: cfg.Options,
		})
		if err != nil {
			return "", err
		}
		PublishCoverage(cfg.Metrics, "coverage", reports)
		return FormatCoverageMatrix(reports), nil
	}},
	{name: "dfc", maxScale: 0.1, run: func(ctx context.Context, cfg SuiteConfig, reg *session.Registry) (string, error) {
		reports, err := DataFlowCoverage(ctx, cfg.Scale, cfg.Samples, cfg.Seed, cfg.Options, reg.Program)
		if err != nil {
			return "", err
		}
		PublishCoverage(cfg.Metrics, "dfc", reports)
		return FormatDataFlowCoverage(reports), nil
	}},
	{name: "latency", maxScale: 0.3, run: func(ctx context.Context, cfg SuiteConfig, reg *session.Registry) (string, error) {
		rows, err := PolicyLatency(ctx, cfg.Scale, cfg.Samples, cfg.Seed, cfg.Options, reg.Program)
		if err != nil {
			return "", err
		}
		PublishPolicyLatency(cfg.Metrics, rows)
		return FormatPolicyLatency(rows), nil
	}},
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
