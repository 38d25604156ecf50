package check

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/dbt"
	"repro/internal/inject"
	"repro/internal/obs"
)

// FuzzCkptRejoinMatchesReplay pins the checkpoint engine's rejoin rule
// (and its other tail shortcuts) to the replay engine, which executes
// every sample to the end. Each input picks a random structured program,
// a technique — the four translated ones including none, the native
// uninstrumented program, or a static CFCSS/ECCA baseline — with a style
// and policy, a campaign seed, a fault model and a small capture interval
// (16–128 steps, so samples cross many checkpoints), and optionally a step
// budget barely above the clean run's, so a rejoin whose shifted step
// count overruns it must stay a hang. Both engines must produce the same
// normalized report, per-sample records, translator stats and campaign
// metrics (outside the engines' own ckpt_ and comp_ series). Plain
// `go test` replays the seed corpus in testdata/fuzz, which includes
// inputs whose campaigns rejoin, one of them (rejoin-cfcss-guard-
// continuation) at a CFCSS guard's continuation, where no block starts,
// and inputs whose CFCSS/ECCA faults restart the program through an
// unwritten stack word, so the tail memo both runs shadow tails and hits
// (memo-cfcss-hit-miss, memo-ecca-hit-miss), or runs shadow tails that
// overrun a tight budget (memo-cfcss-tight-budget).
func FuzzCkptRejoinMatchesReplay(f *testing.F) {
	f.Add(uint16(3), uint8(7), uint8(0), int64(1), uint8(40))
	f.Add(uint16(11), uint8(0), uint8(1), int64(2), uint8(0))
	f.Add(uint16(20), uint8(10), uint8(2), int64(3), uint8(112))
	f.Fuzz(func(t *testing.T, prog uint16, techSel, polSel uint8, seed int64, interval uint8) {
		prof := randomProfile(9000 + int64(prog))
		prof.Name = fmt.Sprintf("rjfuzz-%d", prog)
		p, err := prof.Build(0.02)
		if err != nil {
			t.Skip(err)
		}
		m := cpu.New()
		if stop := m.RunProgram(p, 50_000_000); stop.Reason != cpu.StopHalt {
			t.Skipf("native clean run: %v", stop)
		}
		style := dbt.UpdateJcc
		if techSel&1 == 1 {
			style = dbt.UpdateCmov
		}
		cfg := inject.Config{
			Policy:      dbt.Policies()[int(polSel)%4],
			Samples:     48,
			Seed:        seed,
			KeepRecords: true,
			// Far past any instrumented clean run.
			MaxSteps:  8*m.Steps + 100_000,
			RegFaults: polSel&4 != 0,
		}
		var opts []inject.ExecOption
		target := p
		switch sel := int(techSel>>1) % 7; sel {
		case 0, 1, 2, 3:
			cfg.Technique = append(DBTTechniques(style), dbt.None{})[sel]
		case 4:
			opts = append(opts, inject.AsStatic("none"))
			cfg.RegFaults = false
		default:
			kind := []StaticKind{StaticCFCSS, StaticECCA}[sel-5]
			if target, err = InstrumentStatic(p, kind); err != nil {
				t.Skip(err)
			}
			opts = append(opts, inject.AsStatic(kind.String()))
			cfg.RegFaults = false
			// Enough samples that a worker's share clears the tail memo's
			// shadow gate, so restart tails both miss (and run on the
			// shadow stepper) and hit.
			cfg.Samples = nativeSamples
		}
		if polSel&8 != 0 {
			// A budget a few steps past the clean run's own. Warm-up
			// (a cold translator takes more steps) runs on the loose one.
			var clean uint64
			if len(opts) == 0 {
				snap, _, err := inject.Warm(target, cfg)
				if err != nil {
					t.Skip(err)
				}
				// The campaigns' reference runs on a snapshot clone.
				clean = snap.NewDBT().Run(nil, cfg.MaxSteps).Steps
				opts = append(opts, inject.WithSnapshot(snap, clean))
			} else {
				n, res, err := inject.WarmNative(target, cfg)
				if err != nil {
					t.Skip(err)
				}
				clean = res.Steps
				opts = append(opts, inject.WithNative(n))
			}
			cfg.MaxSteps = clean + uint64(seed&31)
		}
		run := func(iv int64, workers int) (*inject.Report, *obs.Snapshot) {
			c := cfg
			c.CkptInterval, c.Workers, c.Metrics = iv, workers, obs.NewRegistry()
			rep, err := inject.Execute(context.Background(), target, c, opts...)
			if err != nil {
				t.Fatalf("interval %d: %v", iv, err)
			}
			return rep, campaignSeries(c.Metrics.Snapshot())
		}
		replay, replayMetrics := run(0, 1)
		ckpt, ckptMetrics := run(16+int64(interval)%113, 2)
		name := fmt.Sprintf("%s/%s/%s/%v seed %d", prof.Name, ckpt.Technique, style, cfg.Policy, seed)
		if got, want := inject.FormatNormalized(ckpt), inject.FormatNormalized(replay); got != want {
			t.Fatalf("%s: normalized report differs from replay\n got:\n%s\nwant:\n%s", name, got, want)
		}
		if !reflect.DeepEqual(ckpt.Records, replay.Records) {
			t.Fatalf("%s: records differ from replay", name)
		}
		if ckpt.Translator != replay.Translator {
			t.Fatalf("%s: translator stats %+v, replay %+v", name, ckpt.Translator, replay.Translator)
		}
		if !reflect.DeepEqual(ckptMetrics, replayMetrics) {
			t.Fatalf("%s: campaign metrics differ from replay\n got: %+v\nwant: %+v", name, ckptMetrics, replayMetrics)
		}
		if ckpt.Rejoined > ckpt.Executed || ckpt.Executed+ckpt.ShortOffset+ckpt.ShortLive != ckpt.Samples {
			t.Fatalf("%s: engine counters %d executed (%d rejoined) + %d + %d for %d samples",
				name, ckpt.Executed, ckpt.Rejoined, ckpt.ShortOffset, ckpt.ShortLive, ckpt.Samples)
		}
	})
}

// nativeSamples is the sample count of the fuzzer's CFCSS and ECCA
// campaigns: on two workers, each share starts 32 samples past the tail
// memo's shadow gate (64 samples left).
const nativeSamples = 192

// campaignSeries keeps the deterministic series both engines must agree
// on: everything but wall-clock spans and the engines' own ckpt_ and
// comp_ telemetry.
func campaignSeries(s *obs.Snapshot) *obs.Snapshot {
	keep := func(name string) bool {
		return !strings.HasPrefix(name, "ckpt_") && !strings.HasPrefix(name, "comp_")
	}
	out := &obs.Snapshot{Counters: map[string]uint64{}, Gauges: map[string]int64{}, Histograms: map[string]obs.HistSnapshot{}}
	for n, v := range s.Counters {
		if keep(n) {
			out.Counters[n] = v
		}
	}
	for n, v := range s.Gauges {
		if keep(n) {
			out.Gauges[n] = v
		}
	}
	for n, v := range s.Histograms {
		if keep(n) {
			out.Histograms[n] = v
		}
	}
	return out
}
