package repro_test

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// benchGolden is one committed cfc-bench output: the figures at a scale,
// printed as `cfc-bench -fig F -scale S -workers 2` prints them (each
// table followed by a blank line).
type benchGolden struct {
	file    string
	scale   float64
	figures []string
	// full marks the documented size: CI diffs the cfc-bench binary's
	// output against it, and tier-1 only rewrites it under -update.
	full bool
}

var benchGoldens = []benchGolden{
	// Every figure but dfc (the slow one) at a reduced size.
	{file: "bench_scale0.02.txt", scale: 0.02, figures: []string{"dbt", "12", "14", "15", "ablate", "latency"}},
	// cfc-bench -fig all -scale 1.0 -workers 2.
	{file: "bench_all_scale1.txt", scale: 1.0, figures: []string{"dbt", "12", "14", "15", "ablate", "dfc", "latency"}, full: true},
}

// benchOutput runs the figures through the bench suite with cfc-bench's
// settings (300 campaign samples from seed 1, automatic checkpoint
// spacing) and returns what cfc-bench prints for them.
func benchOutput(t *testing.T, scale float64, figures []string) string {
	t.Helper()
	var out strings.Builder
	err := bench.RunSuite(context.Background(), bench.SuiteConfig{
		Scale: scale, Samples: 300, Seed: 1, Figures: figures,
		Options: core.Options{Workers: 2, CkptInterval: -1},
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestBenchGolden pins the paper's figures byte for byte: it regenerates
// each golden's figures and diffs them against the committed text.
// `go test -run TestBenchGolden -update .` rewrites every golden (the
// full-size one takes seconds); the diff is the old → new list a
// figure-moving change records.
func TestBenchGolden(t *testing.T) {
	for _, g := range benchGoldens {
		t.Run(g.file, func(t *testing.T) {
			if g.full && !*update {
				t.Skip("documented size: CI diffs cfc-bench -fig all -scale 1.0 -workers 2 against it")
			}
			path := filepath.Join("testdata", "golden", g.file)
			got := benchOutput(t, g.scale, g.figures)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("figures differ from %s (rerun with -update and commit the diff):\n%s", path, lineDiff(string(want), got))
			}
		})
	}
}

// lineDiff lists the lines that differ between want and got, by position.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			b.WriteString("- " + wl + "\n+ " + gl + "\n")
		}
	}
	return b.String()
}
