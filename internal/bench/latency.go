package bench

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/dbt"
	"repro/internal/inject"

	"repro/internal/check"
)

// PolicyRow quantifies one checking policy's complete trade-off: the
// performance it buys, the coverage it keeps, and the error-report latency
// it pays — the trade the paper's Section 6 describes qualitatively.
type PolicyRow struct {
	Policy      dbt.Policy
	Slowdown    float64 // geomean vs uninstrumented DBT
	Coverage    float64 // detected / effective errors
	MeanLatency float64 // instructions from fault to report
	Hangs       int     // errors that looped past the step budget
	SDCs        int
}

// PolicyLatency measures RCF under all four policies: the slowdown is
// Figure 15's suite geomean at the same scale, coverage and latency come
// from injection campaigns on a workload subset (at half the scale). opts
// forwards to every campaign (Workers also fans Figure 15's
// per-benchmark runs; CkptInterval selects the campaign engine without
// changing any number); build may be nil.
func PolicyLatency(ctx context.Context, scale float64, samples int, seed int64, opts inject.Options, build buildFn) ([]PolicyRow, error) {
	fig15, err := Figure15(scale, opts.Workers, build, nil)
	if err != nil {
		return nil, err
	}
	bf := buildOrDefault(build)
	campaignLoads := []string{"164.gzip", "183.equake"}
	var rows []PolicyRow
	for i, pol := range dbt.Policies() {
		row := PolicyRow{Policy: pol, Slowdown: fig15.GeoAll[i]}
		var latSum uint64
		var latN int
		var detected, errs int
		for _, n := range campaignLoads {
			p, err := bf(n, scale/2)
			if err != nil {
				return nil, err
			}
			rep, err := inject.Execute(ctx, p, inject.Config{
				Technique: &check.RCF{Style: dbt.UpdateCmov},
				Policy:    pol,
				Samples:   samples,
				Seed:      seed,
				MaxSteps:  20_000_000,
				Options:   opts,
			})
			if err != nil {
				return nil, err
			}
			latSum += rep.LatencySum
			latN += rep.LatencyN
			detected += rep.Totals.Detected()
			errs += rep.Totals.Errors()
			row.Hangs += rep.Totals.Count[inject.OutHang]
			row.SDCs += rep.Totals.Count[inject.OutSDC]
		}
		if errs > 0 {
			row.Coverage = float64(detected) / float64(errs)
		}
		if latN > 0 {
			row.MeanLatency = float64(latSum) / float64(latN)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatPolicyLatency renders the policy trade-off table.
func FormatPolicyLatency(rows []PolicyRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "RCF checking policies — speed vs coverage vs error-report latency")
	fmt.Fprintf(&b, "%-8s %10s %10s %14s %7s %6s\n",
		"policy", "slowdown", "coverage", "mean-latency", "hangs", "SDCs")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %9.2fx %9.1f%% %8.0f instr %7d %6d\n",
			r.Policy, r.Slowdown, r.Coverage*100, r.MeanLatency, r.Hangs, r.SDCs)
	}
	fmt.Fprintln(&b, "(signature updates run everywhere under every policy; only the checks move)")
	return b.String()
}
