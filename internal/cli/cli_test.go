package cli

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/comp"
)

// A failed Open must not leave sinks armed: callers fatal on the error
// and never reach Close, so the metrics file, flight recorder, CPU
// profile and the progress ticker all have to be torn down on the error
// path.
func TestOpenFailureTearsDownSinks(t *testing.T) {
	dir := t.TempDir()
	a := &App{Backend: "compile"}
	a.MetricsPath = filepath.Join(dir, "m.json")
	a.CPUProfile = filepath.Join(dir, "missing", "cpu.prof") // create fails
	a.Flight = filepath.Join(dir, "flight.jsonl")
	a.Progress = time.Millisecond

	if err := a.Open(); err == nil {
		t.Fatal("Open succeeded with an uncreatable -cpuprofile path")
	}
	checkDisarmed(t, a)

	// An uncreatable -metrics path fails in Open, before any work runs,
	// and arms nothing after it.
	m := &App{Backend: "compile"}
	m.MetricsPath = filepath.Join(dir, "missing", "m.json") // create fails
	m.CPUProfile = filepath.Join(dir, "cpu0.prof")
	m.Flight = filepath.Join(dir, "flight0.jsonl")
	m.Progress = time.Millisecond
	if err := m.Open(); err == nil {
		t.Fatal("Open succeeded with an uncreatable -metrics path")
	}
	checkDisarmed(t, m)

	// The flight path is created before the cpuprofile failure only when
	// flight setup runs first; with the fallible steps ordered, a failed
	// cpuprofile leaves no armed recorder either way.
	b := &App{Backend: "compile"}
	b.Flight = filepath.Join(dir, "missing", "flight.jsonl") // create fails
	b.CPUProfile = filepath.Join(dir, "cpu.prof")
	b.Progress = time.Millisecond
	if err := b.Open(); err == nil {
		t.Fatal("Open succeeded with an uncreatable -flight path")
	}
	checkDisarmed(t, b)
	// The successfully created cpu profile file was closed by the
	// teardown; profiling is no longer running, so a fresh profile can
	// start (pprof allows one at a time).
	if _, err := os.Stat(b.CPUProfile); err != nil {
		t.Errorf("cpu profile file: %v", err)
	}
	c := &App{Backend: "compile"}
	c.CPUProfile = filepath.Join(dir, "cpu2.prof")
	if err := c.Open(); err != nil {
		t.Fatalf("profiling still active after failed Open: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// checkDisarmed fails t when a failed Open left any sink armed.
func checkDisarmed(t *testing.T, a *App) {
	t.Helper()
	if a.metricsFile != nil || a.registry != nil || a.cpuFile != nil || a.flight != nil || a.tickStop != nil {
		t.Errorf("sinks survived the failed Open: metricsFile=%v registry=%v cpuFile=%v flight=%v tickStop=%v",
			a.metricsFile, a.registry, a.cpuFile, a.flight, a.tickStop)
	}
}

// The metrics file is created at Open and holds the snapshot after
// Close, in the format the path's suffix selects.
func TestMetricsWrittenAtClose(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"m.json", "m.prom"} {
		a := &App{Backend: "compile", MetricsPath: filepath.Join(dir, name)}
		if err := a.Open(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(a.MetricsPath); err != nil {
			t.Fatalf("%s not created by Open: %v", name, err)
		}
		a.Registry().Counter("cli_test_total").Add(3)
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(a.MetricsPath)
		if err != nil {
			t.Fatal(err)
		}
		want := `"cli_test_total": 3`
		if name == "m.prom" {
			want = "cli_test_total 3"
		}
		if !strings.Contains(string(b), want) {
			t.Errorf("%s lacks %q:\n%s", name, want, b)
		}
	}
}

// Each flag group registers exactly its flags on top of the ones every
// tool takes, and Open works with every group unbound.
func TestFlagGroups(t *testing.T) {
	for _, tc := range []struct {
		groups Group
		want   string // in lexical order, as VisitAll visits
	}{
		{0, "cpuprofile memprofile metrics"},
		{Workers, "cpuprofile memprofile metrics workers"},
		{Campaign, "backend ckpt-interval cpuprofile flight flight-depth memprofile metrics progress"},
		{Shard, "cpuprofile memprofile metrics sample-offset"},
		{Graph, "cpuprofile graph-cache memprofile metrics"},
	} {
		fs := flag.NewFlagSet("tool", flag.ContinueOnError)
		var a App
		a.BindFlags(fs, tc.groups)
		var names []string
		fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
		if got := strings.Join(names, " "); got != tc.want {
			t.Errorf("group %d binds %q, want %q", tc.groups, got, tc.want)
		}
	}

	var a App
	if err := a.Open(); err != nil {
		t.Fatalf("Open with no group bound: %v", err)
	}
	if o := a.Options(); o.Backend != comp.BackendAuto || a.Graph() != nil {
		t.Errorf("unbound defaults: backend %v, graph %v", o.Backend, a.Graph())
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}
