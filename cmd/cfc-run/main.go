// Command cfc-run executes a workload (or assembled binary) natively or
// under the dynamic binary translator with a chosen control-flow checking
// configuration, reporting cycles, output and translator statistics.
//
// Usage:
//
//	cfc-run -workload 181.mcf -technique RCF -policy ALLBB
//	cfc-run -bin prog.bin -native
//	cfc-run -workload 164.gzip -technique RCF -json run.json -metrics run.prom
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/check"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dbt"
	"repro/internal/isa"
)

func main() {
	translated := check.Names(func(t *check.Technique) bool { return t.New != nil })
	var (
		workload = flag.String("workload", "", "SPEC2000 workload name (e.g. 164.gzip)")
		bin      = flag.String("bin", "", "binary file to run instead of a workload")
		entry    = flag.Uint("entry", 1, "entry address for -bin (address 0 is the null page)")
		data     = flag.Uint("data", 4096, "data segment words for -bin")
		scale    = flag.Float64("scale", 1.0, "workload dynamic scale")
		native   = flag.Bool("native", false, "run natively (no translator)")
		tech     = flag.String("technique", "none", strings.Join(translated, "|"))
		style    = flag.String("style", "Jcc", "Jcc|CMOVcc")
		policy   = flag.String("policy", "ALLBB", "ALLBB|RET-BE|RET|END")
		maxSteps = flag.Uint64("max-steps", 2_000_000_000, "step budget")
		list     = flag.Bool("list", false, "list workload names and exit")
		jsonOut  = flag.String("json", "", "write a machine-readable run record to `file`")
	)
	var app cli.App
	app.BindFlags(flag.CommandLine, 0)
	flag.Parse()

	if *list {
		for _, n := range core.WorkloadNames() {
			fmt.Println(n)
		}
		return
	}

	var p *isa.Program
	var err error
	switch {
	case *workload != "":
		p, err = core.Workload(*workload, *scale)
	case *bin != "":
		var img []byte
		img, err = os.ReadFile(*bin)
		if err == nil {
			p, err = isa.LoadImage(*bin, img, uint32(*entry), uint32(*data))
		}
	default:
		err = fmt.Errorf("need -workload or -bin (try -list)")
	}
	if err != nil {
		fatal(err)
	}
	fatalIf(app.Open())

	if *native {
		res := core.RunNative(p, *maxSteps)
		fmt.Printf("native: stop=%v cycles=%d steps=%d output=%v\n",
			res.Stop, res.Cycles, res.Steps, res.Output)
		rec := runRecord{
			Program: p.Name, Mode: "native",
			Stop: res.Stop.String(), Cycles: res.Cycles, Steps: res.Steps,
			Output: res.Output,
		}
		if *jsonOut != "" {
			fatalIf(writeRunJSON(*jsonOut, &rec))
		}
		fatalIf(app.Close())
		exitFor(res.Stop)
		return
	}

	row, err := check.Lookup(*tech)
	fatalIf(err)
	d, err := core.NewDBT(p, core.Config{Technique: row.Name, Style: *style, Policy: *policy})
	fatalIf(err)
	res := d.Run(nil, *maxSteps)
	fmt.Printf("dbt(%s/%s/%s): stop=%v cycles=%d steps=%d\n",
		*tech, *style, *policy, res.Stop, res.Cycles, res.Steps)
	fmt.Printf("output: %v\n", res.Output)
	st := res.Stats
	fmt.Printf("translator: %d blocks (%d guest instrs), %d traces, %d check sites, %d dispatches, %d indirect lookups, cache %d instrs\n",
		st.BlocksTranslated, st.GuestInstrsTranslated, st.TracesFormed,
		st.CheckSites, st.Dispatches, st.IndirectLookups, res.CacheSize)

	if reg := app.Registry(); reg != nil {
		res.Stats.Publish(reg, row.Name)
		reg.Gauge(fmt.Sprintf("dbt_code_cache_instrs{technique=%q}", row.Name)).Max(int64(res.CacheSize))
		reg.Counter(fmt.Sprintf("cpu_sig_checks_total{technique=%q}", row.Name)).Add(res.SigChecks)
	}
	if *jsonOut != "" {
		rec := runRecord{
			Program: p.Name, Mode: "dbt",
			Technique: *tech, Style: *style, Policy: *policy,
			Stop: res.Stop.String(), Cycles: res.Cycles, Steps: res.Steps,
			Output: res.Output, Translator: &res.Stats,
			CacheInstrs: res.CacheSize, SigChecks: res.SigChecks,
		}
		fatalIf(writeRunJSON(*jsonOut, &rec))
	}
	fatalIf(app.Close())
	exitFor(res.Stop)
}

// runRecord is the schema of the -json output: one record per run, the
// machine-readable counterpart of the text report.
type runRecord struct {
	Program     string     `json:"program"`
	Mode        string     `json:"mode"` // "native" or "dbt"
	Technique   string     `json:"technique,omitempty"`
	Style       string     `json:"style,omitempty"`
	Policy      string     `json:"policy,omitempty"`
	Stop        string     `json:"stop"`
	Cycles      uint64     `json:"cycles"`
	Steps       uint64     `json:"steps"`
	Output      []int32    `json:"output"`
	Translator  *dbt.Stats `json:"translator,omitempty"`
	CacheInstrs int        `json:"cache_instrs,omitempty"`
	SigChecks   uint64     `json:"sig_checks,omitempty"`
}

func writeRunJSON(path string, rec *runRecord) error {
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

func exitFor(stop cpu.Stop) {
	if stop.Reason != cpu.StopHalt {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cfc-run:", err)
	os.Exit(1)
}

func fatalIf(err error) {
	if err != nil {
		fatal(err)
	}
}
