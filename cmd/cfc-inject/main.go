// Command cfc-inject runs soft-error injection campaigns: single bit flips
// in branch offsets or condition flags, per the paper's error model, with
// outcomes classified by branch-error category. -technique selects a
// translated technique or one of the static CFCSS/ECCA baselines, which
// run natively. The -matrix mode compares every technique side by side —
// the empirical counterpart of the paper's Section 3 coverage analysis
// and its stated future work.
//
// -workers shards the samples across a goroutine pool; the classified
// report is bit-identical for every worker count.
//
// -ckpt-interval selects the injection engine: 0 replays every sample from
// the start (the original engine), and -1 (the default) checkpoints the
// clean run at a spacing derived from its length and resumes each sample
// from the nearest checkpoint. Reports are byte-identical across both.
// No other value is accepted.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/bench"
	"repro/internal/check"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/inject"
	"repro/internal/obs"
	"repro/internal/session"
)

func main() {
	var (
		workload  = flag.String("workload", "164.gzip", "workload name")
		scale     = flag.Float64("scale", 0.1, "workload dynamic scale")
		tech      = flag.String("technique", "RCF", strings.Join(check.Names(nil), "|"))
		style     = flag.String("style", "CMOVcc", "Jcc|CMOVcc")
		policy    = flag.String("policy", "ALLBB", "ALLBB|RET-BE|RET|END")
		samples   = flag.Int("samples", 500, "number of injected faults")
		seed      = flag.Int64("seed", 1, "PRNG seed")
		matrix    = flag.Bool("matrix", false, "run the full coverage matrix instead")
		reportOut = flag.String("report-json", "",
			"write the normalized campaign report (JSON) to this file")
	)
	app := cli.App{CkptInterval: -1}
	app.BindFlags(flag.CommandLine, cli.Workers|cli.Campaign|cli.Shard|cli.Graph)
	flag.Parse()
	fatalIf(app.Open())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *matrix {
		reports, err := bench.CoverageMatrix(ctx, bench.CoverageConfig{
			Scale:    *scale,
			Samples:  *samples,
			Seed:     *seed,
			Sessions: session.NewRegistry(session.Config{Metrics: app.Registry(), Graph: app.Graph()}),
			Options:  app.Options(),
		})
		fatalIf(err)
		// The matrix goes to stdout untouched: with -graph-cache the CI
		// gate byte-diffs a cold run against a hot one, so cache status
		// belongs on stderr.
		fmt.Print(bench.FormatCoverageMatrix(reports))
		fatalIf(app.Close())
		return
	}

	p, err := core.Workload(*workload, *scale)
	fatalIf(err)
	cfg := core.Config{Technique: *tech, Style: *style, Policy: *policy,
		SampleOffset: app.SampleOffset, Options: app.Options()}
	var rep *inject.Report
	if g := app.Graph(); g != nil {
		// The report is a cell of the campaign graph.
		key := graph.KeyFor(p, *tech, *style, *policy, *samples, *seed,
			cfg.SampleOffset, cfg.CkptInterval, cfg.Backend, 0)
		var cached bool
		rep, cached, err = g.Run(key, app.Registry(), func(m *obs.Registry) (*inject.Report, error) {
			c := cfg
			c.Metrics = m
			return core.InjectCtx(ctx, p, c, *samples, *seed)
		})
		fatalIf(err)
		if cached {
			fmt.Fprintln(os.Stderr, "cfc-inject: graph cache hit — campaign loaded, not executed")
		}
	} else {
		rep, err = core.InjectCtx(ctx, p, cfg, *samples, *seed)
		fatalIf(err)
	}
	fmt.Print(inject.FormatReport(rep))
	if *reportOut != "" {
		fatalIf(writeReportJSON(*reportOut, rep))
	}
	fatalIf(app.Close())
}

// reportRecord is the -report-json schema: the normalized report text plus
// the summary fields the batch server streams, so CI can diff a CLI run
// against a served campaign field for field.
type reportRecord struct {
	Workload     string `json:"workload"`
	Technique    string `json:"technique"`
	Samples      int    `json:"samples"`
	SampleOffset int    `json:"sample_offset,omitempty"`
	NotFired     int    `json:"not_fired"`
	// Engine telemetry: samples whose tails executed vs were synthesized
	// (No Error offset vs flag short-circuits; short_live is the flag
	// family), and the executed tails that rejoined the reference run.
	// Mirrors the batch server's NDJSON fields; excluded from the
	// normalized Report.
	Executed    int `json:"executed,omitempty"`
	ShortOffset int `json:"short_offset,omitempty"`
	ShortLive   int `json:"short_live,omitempty"`
	Rejoined    int `json:"rejoined,omitempty"`
	// Report is the FormatNormalized rendering: byte-identical to the
	// server stream's "report" field for the same configuration.
	Report string `json:"report"`
}

func writeReportJSON(path string, rep *inject.Report) error {
	out, err := json.MarshalIndent(reportRecord{
		Workload:     rep.Program,
		Technique:    rep.Technique,
		Samples:      rep.Samples,
		SampleOffset: rep.SampleOffset,
		NotFired:     rep.NotFired,
		Executed:     rep.Executed,
		ShortOffset:  rep.ShortOffset,
		ShortLive:    rep.ShortLive,
		Rejoined:     rep.Rejoined,
		Report:       inject.FormatNormalized(rep),
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cfc-inject:", err)
		os.Exit(1)
	}
}
