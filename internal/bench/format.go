package bench

import (
	"fmt"
	"strings"

	"repro/internal/errmodel"
	"repro/internal/inject"
	"repro/internal/workloads"
)

// FormatSlowdownTable renders a per-benchmark slowdown table with suite
// geomeans, fp block first (the paper's figure layout).
func FormatSlowdownTable(t *SlowdownTable) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	fmt.Fprintf(&b, "%-14s", "benchmark")
	for _, c := range t.Configs {
		fmt.Fprintf(&b, " %9s", c)
	}
	fmt.Fprintln(&b)
	emit := func(name string, vals []float64) {
		fmt.Fprintf(&b, "%-14s", name)
		for _, v := range vals {
			fmt.Fprintf(&b, " %9.3f", v)
		}
		fmt.Fprintln(&b)
	}
	for _, suite := range []workloads.Suite{workloads.SuiteFp, workloads.SuiteInt} {
		for _, r := range t.Rows {
			if r.Suite == suite {
				emit(r.Name, r.Slowdown)
			}
		}
		if suite == workloads.SuiteFp {
			emit("geomean-fp", t.GeoFp)
		} else {
			emit("geomean-int", t.GeoInt)
		}
	}
	emit("geomean-all", t.GeoAll)
	return b.String()
}

// FormatFigure14 renders the update-style comparison table.
func FormatFigure14(t *Figure14Table) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 14 - geomean slowdown by conditional-update instruction")
	fmt.Fprintf(&b, "%-8s", "update")
	for _, tc := range t.Techniques {
		fmt.Fprintf(&b, " %8s", tc)
	}
	fmt.Fprintln(&b)
	for si, st := range t.Styles {
		fmt.Fprintf(&b, "%-8s", st)
		for ti := range t.Techniques {
			fmt.Fprintf(&b, " %8.2f", t.Slowdown[si][ti])
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintln(&b, "(Jcc rows for EdgCF/ECF are the unsafe configurations; RCF-Jcc is safe)")
	return b.String()
}

// FormatBaseline renders the native-vs-DBT overhead table.
func FormatBaseline(rows []BaselineRow, avg float64) string {
	var b strings.Builder
	fmt.Fprintln(&b, "DBT baseline overhead vs native (uninstrumented translation)")
	fmt.Fprintf(&b, "%-14s %14s %14s %9s\n", "benchmark", "native-cycles", "dbt-cycles", "overhead")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %14d %14d %8.1f%%\n", r.Name, r.Native, r.DBT, r.Overhead*100)
	}
	fmt.Fprintf(&b, "geomean overhead: %.1f%% (paper: ~12%%)\n", avg*100)
	return b.String()
}

// FormatCoverageMatrix renders technique x category coverage (percent of
// effective errors detected), the empirical counterpart of Section 3's
// analysis.
func FormatCoverageMatrix(reports []*inject.Report) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Fault-injection coverage by branch-error category (detected / effective errors)")
	cats := append(errmodel.SDCCategories(), errmodel.CatF)
	fmt.Fprintf(&b, "%-10s", "technique")
	for _, c := range cats {
		fmt.Fprintf(&b, " %7s", c.String())
	}
	fmt.Fprintf(&b, " %7s %6s\n", "total", "SDCs")
	for _, r := range reports {
		fmt.Fprintf(&b, "%-10s", r.Technique)
		for _, c := range cats {
			a := r.ByCat[c]
			if a == nil || a.Errors() == 0 {
				fmt.Fprintf(&b, " %7s", "-")
				continue
			}
			fmt.Fprintf(&b, " %6.1f%%", a.Coverage()*100)
		}
		fmt.Fprintf(&b, " %6.1f%% %6d\n", r.Totals.Coverage()*100, r.Totals.Count[inject.OutSDC])
	}
	// Engine telemetry, one line per row that the checkpoint engine did
	// not simply execute; elided under the replay engine.
	for _, r := range reports {
		if r.ShortOffset+r.ShortLive+r.Rejoined > 0 {
			fmt.Fprintf(&b, "engine: %-8s %d executed (%d rejoined), %d offset short-circuits, %d flag short-circuits\n",
				r.Technique, r.Executed, r.Rejoined, r.ShortOffset, r.ShortLive)
		}
	}
	return b.String()
}
