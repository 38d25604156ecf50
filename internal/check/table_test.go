package check_test

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"unicode"

	"repro/internal/bench"
	"repro/internal/check"
	"repro/internal/comp"
	"repro/internal/core"
	"repro/internal/dbt"
	"repro/internal/inject"
	"repro/internal/session"
	"repro/internal/sig"
)

// Every row's constructors name the row, every letter case of a name
// resolves to its row, and names are unique.
func TestTechniqueTable(t *testing.T) {
	g := &sig.Graph{Succs: [][]sig.BlockID{{1}, {2}, {1, 3}, {0, 4}, {}}}
	seen := map[string]bool{}
	for i := range check.Techniques {
		row := &check.Techniques[i]
		if seen[strings.ToLower(row.Name)] {
			t.Errorf("%s: name listed twice", row.Name)
		}
		seen[strings.ToLower(row.Name)] = true
		if row.New != nil {
			for _, style := range []dbt.UpdateStyle{dbt.UpdateJcc, dbt.UpdateCmov} {
				if got := row.New(style).Name(); got != row.Name {
					t.Errorf("%s: New(%v).Name() = %q", row.Name, style, got)
				}
			}
		} else if got := row.Static.String(); got != row.Name {
			t.Errorf("%s: Static.String() = %q", row.Name, got)
		}
		if row.Scheme != nil {
			if got := row.Scheme(g).Name(); got != row.Name {
				t.Errorf("%s: Scheme(g).Name() = %q", row.Name, got)
			}
		} else if row.Name != "none" {
			t.Errorf("%s: no signature scheme", row.Name)
		}
		for _, spelling := range []string{row.Name, strings.ToLower(row.Name), strings.ToUpper(row.Name), mixedCase(row.Name)} {
			if got, err := check.Lookup(spelling); err != nil || got != row {
				t.Errorf("Lookup(%q) = %v, %v; want the %s row", spelling, got, err, row.Name)
			}
		}
	}
	if got, err := check.Lookup(""); err != nil || got.Name != "none" {
		t.Errorf(`Lookup("") = %v, %v; want the none row`, got, err)
	}
	const want = `unknown technique "zork" (want none, ECF, EdgCF, RCF, CFCSS, ECCA)`
	for _, lookup := range []func() error{
		func() error { _, err := check.Lookup("zork"); return err },
		func() error { _, err := check.New("zork", dbt.UpdateJcc); return err },
		func() error { _, err := core.VerifyScheme("zork", nil); return err },
		func() error { _, _, _, err := core.Config{Technique: "zork"}.Resolve(); return err },
	} {
		if err := lookup(); err == nil || err.Error() != want {
			t.Errorf("unknown technique: %v, want %q", err, want)
		}
	}
}

// Identify maps every accepted spelling of a configuration to one
// identity and one canonical spelling, without allocating: the style only
// for the rows whose translator reads it, which is exactly the rows whose
// constructor builds a different technique under each style.
func TestIdentify(t *testing.T) {
	for i := range check.Techniques {
		row := &check.Techniques[i]
		reads := row.New != nil && !reflect.DeepEqual(row.New(dbt.UpdateJcc), row.New(dbt.UpdateCmov))
		if row.ReadsStyle() != reads {
			t.Errorf("%s: ReadsStyle() = %v, but its constructor says %v", row.Name, row.ReadsStyle(), reads)
		}
	}
	for _, tc := range []struct {
		in, want [3]string
	}{
		{[3]string{"", "", ""}, [3]string{"none", "", "ALLBB"}},
		{[3]string{"none", "CMOVcc", "end"}, [3]string{"none", "", "END"}},
		{[3]string{"rcf", "", ""}, [3]string{"RCF", "Jcc", "ALLBB"}},
		{[3]string{"RCF", "cmov", "retbe"}, [3]string{"RCF", "CMOVcc", "RET-BE"}},
		{[3]string{"Edgcf", "CMOVCC", "Ret-Be"}, [3]string{"EdgCF", "CMOVcc", "RET-BE"}},
		{[3]string{"ECF", "jcc", "ret"}, [3]string{"ECF", "Jcc", "RET"}},
		{[3]string{"cfcss", "CMOVcc", "allbb"}, [3]string{"CFCSS", "", "ALLBB"}},
		{[3]string{"ECCA", "Jcc", "Allbb"}, [3]string{"ECCA", "", "ALLBB"}},
	} {
		id, err := check.Identify(tc.in[0], tc.in[1], tc.in[2])
		if err != nil {
			t.Errorf("Identify%q: %v", tc.in, err)
			continue
		}
		if tech, style, pol := id.Names(); [3]string{tech, style, pol} != tc.want {
			t.Errorf("Identify%q spelled %q, want %q", tc.in, [3]string{tech, style, pol}, tc.want)
		}
	}
	for _, bad := range []struct {
		in   [3]string
		want string
	}{
		{[3]string{"zork", "", ""}, `unknown technique "zork" (want none, ECF, EdgCF, RCF, CFCSS, ECCA)`},
		{[3]string{"CFCSS", "zork", ""}, `unknown update style "zork" (want Jcc or CMOVcc)`},
		{[3]string{"RCF", "", "RET_BE"}, `unknown policy "RET_BE" (want ALLBB, RET-BE, RET or END)`},
	} {
		if _, err := check.Identify(bad.in[0], bad.in[1], bad.in[2]); err == nil || err.Error() != bad.want {
			t.Errorf("Identify%q: %v, want %q", bad.in, err, bad.want)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		id, _ := check.Identify("Rcf", "CMOVcc", "ret-be")
		id.Names()
		core.ParseStyle("CMOVcc")
		core.ParsePolicy("allbb")
	}); n != 0 {
		t.Errorf("parsing allocates %v times", n)
	}
}

// mixedCase lower-cases name, then upper-cases every second letter.
func mixedCase(name string) string {
	b := []byte(strings.ToLower(name))
	for i := 1; i < len(b); i += 2 {
		b[i] = byte(unicode.ToUpper(rune(b[i])))
	}
	return string(b)
}

// One small campaign per row reads the same through the library facade,
// the session registry and the coverage matrix, on each backend: the
// normalized reports are equal, except that the matrix labels its program
// "suite", and the session's engine telemetry and compiled-backend work
// are the facade's, so a step campaign on a session runs no compiled code.
func TestTechniqueCampaignsAgree(t *testing.T) {
	const (
		workload = "181.mcf"
		scale    = 0.05
		samples  = 120
		seed     = 3
	)
	ctx := context.Background()
	p, err := core.Workload(workload, scale)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []comp.Backend{comp.BackendAuto, comp.BackendStep} {
		opts := core.Options{Workers: 2, CkptInterval: -1, Backend: backend}
		reg := session.NewRegistry(session.Config{})
		reports, err := bench.CoverageMatrix(ctx, bench.CoverageConfig{
			Scale: scale, Samples: samples, Seed: seed, Workloads: []string{workload}, Options: opts,
		})
		if err != nil {
			t.Fatal(err)
		}
		matrix := map[string]*inject.Report{}
		for _, r := range reports {
			matrix[r.Technique] = r
		}
		for _, row := range check.Techniques {
			// Lower case on the facade, upper case on the session: any
			// spelling runs the row.
			direct, err := core.InjectCtx(ctx, p, core.Config{
				Technique: strings.ToLower(row.Name), Style: "CMOVcc", Options: opts,
			}, samples, seed)
			if err != nil {
				t.Fatalf("%s/%s: InjectCtx: %v", backend, row.Name, err)
			}
			served, _, err := reg.RunCell(ctx, session.Key{
				Workload: workload, Scale: scale, Technique: strings.ToUpper(row.Name), Style: "CMOVcc",
			}, session.Spec{Samples: samples, Seed: seed}, opts)
			if err != nil {
				t.Fatalf("%s/%s: RunCell: %v", backend, row.Name, err)
			}
			m := matrix[row.Name]
			if m == nil {
				t.Fatalf("%s/%s: no matrix column", backend, row.Name)
			}
			relabeled := *m
			relabeled.Program = direct.Program
			want := inject.FormatNormalized(direct)
			if direct.Technique != row.Name || direct.Totals.Total == 0 {
				t.Errorf("%s/%s: report labeled %q with %d fired faults", backend, row.Name, direct.Technique, direct.Totals.Total)
			}
			if got := inject.FormatNormalized(served); got != want {
				t.Errorf("%s/%s: session report differs from InjectCtx:\n%s\nwant:\n%s", backend, row.Name, got, want)
			}
			if got := inject.FormatNormalized(&relabeled); got != want {
				t.Errorf("%s/%s: matrix report differs from InjectCtx:\n%s\nwant:\n%s", backend, row.Name, got, want)
			}
			type work struct {
				Compiled                                   comp.Stats
				Executed, Rejoined, ShortOffset, ShortLive int
			}
			workOf := func(r *inject.Report) work {
				return work{r.Compiled, r.Executed, r.Rejoined, r.ShortOffset, r.ShortLive}
			}
			if got, want := workOf(served), workOf(direct); got != want {
				t.Errorf("%s/%s: session work differs from InjectCtx:\n%+v\nwant:\n%+v", backend, row.Name, got, want)
			}
		}
	}
}
