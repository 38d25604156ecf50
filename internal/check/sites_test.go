package check

import (
	"fmt"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/cpu"
	"repro/internal/dbt"
	"repro/internal/inject"
	"repro/internal/isa"
	"repro/internal/workloads"
)

// hookSite is one direct branch as a branch hook on the step interpreter
// sees it, with the counters at that moment.
type hookSite struct {
	ev               cpu.BranchEvent
	steps, sigChecks uint64
	prefix           dbt.Stats
}

// TestSiteTableMatchesBranchHook: every entry of a recorded log's site
// table equals what a BranchHook run of the same reference reports at
// that branch: IP and instruction, evaluated flags, direction, step
// count, signature checks and translator counters. It covers the
// transparency programs natively, under CFCSS and under every translated
// technique and style, at a small interval so entries decode from many
// points, and the work gate's benchmark shapes at the engine's interval.
func TestSiteTableMatchesBranchHook(t *testing.T) {
	type shape struct {
		name   string
		p      *isa.Program
		tech   dbt.Technique // nil: native
		policy dbt.Policy
		iv     uint64 // 0: the engine's automatic interval
	}
	var shapes []shape
	for name, src := range transparencyPrograms {
		p := mustAssemble(t, src)
		shapes = append(shapes, shape{name + "/native", p, nil, 0, 37})
		if ip, err := InstrumentStatic(p, StaticCFCSS); err == nil {
			shapes = append(shapes, shape{name + "/CFCSS", ip, nil, 0, 37})
		}
		for _, style := range []dbt.UpdateStyle{dbt.UpdateJcc, dbt.UpdateCmov} {
			for i, tech := range DBTTechniques(style) {
				pol := dbt.Policies()[i%4]
				shapes = append(shapes, shape{fmt.Sprintf("%s/%s/%v/%v", name, tech.Name(), style, pol), p, tech, pol, 37})
			}
		}
	}
	if !testing.Short() {
		for _, w := range []struct {
			workload, tech string
			style          dbt.UpdateStyle
			policy         dbt.Policy
		}{
			{"164.gzip", "RCF", dbt.UpdateJcc, dbt.PolicyAllBB},
			{"171.swim", "EdgCF", dbt.UpdateCmov, dbt.PolicyRetBE},
			{"181.mcf", "CFCSS", 0, dbt.PolicyAllBB},
			{"197.parser", "RCF", dbt.UpdateJcc, dbt.PolicyRetBE},
		} {
			prof, err := workloads.ByName(w.workload)
			if err != nil {
				t.Fatal(err)
			}
			p, err := prof.Build(0.05)
			if err != nil {
				t.Fatal(err)
			}
			s := shape{name: w.workload + "/" + w.tech, p: p, policy: w.policy}
			if w.tech == "CFCSS" {
				s.p, err = InstrumentStatic(p, StaticCFCSS)
			} else {
				s.tech, err = New(w.tech, w.style)
			}
			if err != nil {
				t.Fatal(err)
			}
			shapes = append(shapes, s)
		}
	}
	const maxSteps = 50_000_000
	for _, s := range shapes {
		var sites []hookSite
		var code []isa.Instr
		var steps uint64
		var record func(iv uint64) (*ckpt.Log, error)
		if s.tech == nil {
			m := cpu.New()
			m.Reset(s.p)
			m.BranchHook = func(ev cpu.BranchEvent) {
				sites = append(sites, hookSite{ev, m.Steps, m.SigChecks, dbt.Stats{}})
			}
			if stop := m.Run(s.p.Code, maxSteps); stop.Reason != cpu.StopHalt {
				t.Fatalf("%s: clean run %v", s.name, stop)
			}
			code, steps = s.p.Code, m.Steps
			record = func(iv uint64) (*ckpt.Log, error) { return ckpt.RecordStatic(s.p, nil, iv, maxSteps) }
		} else {
			snap, clean, err := inject.Warm(s.p, inject.Config{Technique: s.tech, Policy: s.policy, MaxSteps: maxSteps})
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			d := snap.NewDBT()
			m, res := d.Start(nil)
			if res != nil {
				t.Fatalf("%s: %v", s.name, res.Stop)
			}
			base := snap.Stats()
			m.BranchHook = func(ev cpu.BranchEvent) {
				sites = append(sites, hookSite{ev, m.Steps, m.SigChecks, d.StatsSnapshot().Sub(base)})
			}
			if stop := d.Advance(m, maxSteps); stop.Reason != cpu.StopHalt {
				t.Fatalf("%s: clean run %v", s.name, stop)
			}
			code, steps = snap.Code(), clean.Steps
			record = func(iv uint64) (*ckpt.Log, error) { return ckpt.Record(snap, iv, maxSteps) }
		}
		iv := s.iv
		if iv == 0 {
			iv = ckpt.AutoInterval(-1, steps)
		}
		log, err := record(iv)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(len(sites)) != log.Final.DirectBranches {
			t.Fatalf("%s: hook saw %d branches, the log %d", s.name, len(sites), log.Final.DirectBranches)
		}
		// One reader resumes its walk over ascending branches, one jumps
		// around (a stride coprime to most counts: forward, back and onto
		// the same branch), and a fresh one decodes each branch from its
		// point.
		walk, jump := log.SiteReader(code), log.SiteReader(code)
		want := func(b int) ckpt.Site {
			h := &sites[b]
			return ckpt.Site{
				IP: h.ev.IP, Instr: h.ev.Instr, Flags: h.ev.Flags, Taken: h.ev.Taken,
				Steps: h.steps, SigChecks: h.sigChecks, Prefix: h.prefix,
			}
		}
		for i := range sites {
			j := i * 7919 % len(sites)
			for _, c := range []struct {
				r *ckpt.SiteReader
				b int
			}{{walk, i}, {jump, j}, {jump, j}, {log.SiteReader(code), i}} {
				if got, ok := c.r.Site(uint64(c.b)); !ok || got != want(c.b) {
					t.Fatalf("%s branch %d: table %+v (%v), hook %+v", s.name, c.b, got, ok, want(c.b))
				}
			}
		}
		if _, ok := walk.Site(uint64(len(sites))); ok {
			t.Errorf("%s: the table has a site past the last branch", s.name)
		}
	}
}
