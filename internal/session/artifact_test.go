package session

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/obs"
)

// artifactRegistry builds a registry wired to the artifact tier.
func artifactRegistry(store *artifact.Store, baseURL string) (*Registry, *obs.Registry) {
	reg := obs.NewRegistry()
	r := NewRegistry(Config{
		Metrics:   reg,
		Artifacts: &artifact.Client{BaseURL: baseURL, Local: store, Metrics: reg},
	})
	return r, reg
}

// The tentpole contract: a cold replica pointed at a warm artifact store
// builds nothing — zero reference recordings, zero block translations —
// and serves campaigns byte-identical to the replica that built the
// state locally. Exercised over HTTP for both a translator technique and
// a static baseline, under the checkpoint engine.
func TestArtifactColdRestoreOverHTTP(t *testing.T) {
	for _, tech := range []string{"RCF", "CFCSS"} {
		t.Run(tech, func(t *testing.T) {
			srv := httptest.NewServer(artifact.Handler(artifact.NewStore("")))
			defer srv.Close()
			k := testKey(tech)

			rA, regA := artifactRegistry(artifact.NewStore(""), srv.URL)
			sA := mustSession(t, rA, k)
			if got := counter(regA, "session_warm_builds_total"); got != 1 {
				t.Fatalf("replica A warm builds = %d, want 1", got)
			}
			if got := counter(regA, "artifact_publish_total"); got != 1 {
				t.Fatalf("replica A publishes = %d, want 1", got)
			}

			rB, regB := artifactRegistry(artifact.NewStore(""), srv.URL)
			sB := mustSession(t, rB, k)
			if got := counter(regB, "session_restores_total"); got != 1 {
				t.Errorf("replica B restores = %d, want 1", got)
			}
			if got := counter(regB, "session_warm_builds_total"); got != 0 {
				t.Errorf("replica B warm builds = %d, want 0", got)
			}
			if got := counter(regB, "artifact_fetch_hits_total"); got != 1 {
				t.Errorf("replica B fetch hits = %d, want 1", got)
			}
			if got := recordings(regB); got != 0 {
				t.Errorf("replica B recordings = %d, want 0", got)
			}

			opts := core.Options{Workers: 2, CkptInterval: -1}
			repA, err := sA.Run(context.Background(), Spec{Samples: testSamples, Seed: 7}, opts)
			if err != nil {
				t.Fatal(err)
			}
			repB, err := sB.Run(context.Background(), Spec{Samples: testSamples, Seed: 7}, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := inject.FormatNormalized(repB), inject.FormatNormalized(repA); got != want {
				t.Errorf("restored report differs from local build\n got: %s\nwant: %s", got, want)
			}
			// A native session rebuilds its warm state from the code: it
			// freezes the same reached blocks as the local build.
			if sB.warm.Static() != (tech == "CFCSS") {
				t.Errorf("restored session native warm state present = %v", sB.warm.Static())
			}
			if repB.Compiled != repA.Compiled {
				t.Errorf("restored compiled stats %+v, local build %+v", repB.Compiled, repA.Compiled)
			}
		})
	}
}

// A fresh process on the same artifact directory restores every session
// shape without any HTTP server: registry B opens its own store on A's
// directory, performs zero recordings and zero warm builds, holds A's
// very log, and serves campaigns on either engine like A.
func TestArtifactSharedLocalStore(t *testing.T) {
	for _, tech := range []string{"RCF", "CFCSS"} {
		for _, iv := range []int64{0, -1} {
			t.Run(fmt.Sprintf("%s/iv=%d", tech, iv), func(t *testing.T) {
				dir := t.TempDir()
				k := testKey(tech)

				rA, _ := artifactRegistry(artifact.NewStore(dir), "")
				sA := mustSession(t, rA, k)

				rB, regB := artifactRegistry(artifact.NewStore(dir), "")
				sB := mustSession(t, rB, k)
				if got := counter(regB, "session_restores_total"); got != 1 {
					t.Errorf("restores = %d, want 1", got)
				}
				if got := counter(regB, "session_warm_builds_total"); got != 0 {
					t.Errorf("warm builds = %d, want 0", got)
				}
				if got := recordings(regB); got != 0 {
					t.Errorf("recordings = %d, want 0", got)
				}
				if sA.Log() == nil {
					t.Error("session holds no checkpoint log")
				}
				if !reflect.DeepEqual(sB.Log(), sA.Log()) {
					t.Error("restored log differs from the recorded one")
				}

				opts := core.Options{CkptInterval: iv}
				repA, err := sA.Run(context.Background(), Spec{Samples: testSamples, Seed: 3}, opts)
				if err != nil {
					t.Fatal(err)
				}
				repB, err := sB.Run(context.Background(), Spec{Samples: testSamples, Seed: 3}, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := inject.FormatNormalized(repB), inject.FormatNormalized(repA); got != want {
					t.Errorf("restored report differs from local build\n got: %s\nwant: %s", got, want)
				}
			})
		}
	}
}

// Verification failures must degrade to a local build that then serves
// correct campaigns — a bad artifact never poisons the registry.
func TestArtifactFailureFallsBackToLocalBuild(t *testing.T) {
	k := testKey("RCF")

	// A blob sealed under another configuration's fingerprint behind k's
	// ref: the fetch decodes it as stale and the registry builds (and
	// republishes).
	store := artifact.NewStore(t.TempDir())
	rA, _ := artifactRegistry(store, "")
	other := mustSession(t, rA, testKey("none")).Key
	pe, err := rA.programEntry(k.Workload, k.Scale)
	if err != nil {
		t.Fatal(err)
	}
	digest, ok := store.Resolve(artifact.RefID(rA.artifactFingerprint(other, pe)))
	if !ok {
		t.Fatal("replica A published no artifact")
	}
	if err := store.Link(artifact.RefID(rA.artifactFingerprint(k, pe)), digest); err != nil {
		t.Fatal(err)
	}

	rB, regB := artifactRegistry(store, "")
	sB := mustSession(t, rB, k)
	if got := counter(regB, "artifact_fetch_stale_total"); got != 1 {
		t.Errorf("stale fetches = %d, want 1", got)
	}
	if got := counter(regB, "session_restores_total"); got != 0 {
		t.Errorf("mismatched fingerprint restored: restores = %d, want 0", got)
	}
	if got := counter(regB, "session_warm_builds_total"); got != 1 {
		t.Errorf("warm builds = %d, want 1", got)
	}

	rep, err := sB.Run(context.Background(), Spec{Samples: testSamples, Seed: 7}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Samples != testSamples {
		t.Errorf("fallback session served %d samples, want %d", rep.Samples, testSamples)
	}

	// A corrupt blob behind a valid ref: corrupt counter, local build.
	badStore := artifact.NewStore("")
	blob := []byte("not an artifact")
	badStore.Put(blob)
	regC := obs.NewRegistry()
	rC := NewRegistry(Config{Metrics: regC, Artifacts: &artifact.Client{Local: badStore, Metrics: regC}})
	// Plant the garbage blob behind the exact fingerprint the registry
	// will derive for k, so the fetch resolves and fails verification.
	pe, err = rC.programEntry(k.Workload, k.Scale)
	if err != nil {
		t.Fatal(err)
	}
	afp := rC.artifactFingerprint(k, pe)
	if err := badStore.Link(artifact.RefID(afp), artifact.Digest(blob)); err != nil {
		t.Fatal(err)
	}
	sC := mustSession(t, rC, k)
	if got := counter(regC, "artifact_fetch_corrupt_total"); got != 1 {
		t.Errorf("corrupt fetches = %d, want 1", got)
	}
	if got := counter(regC, "session_warm_builds_total"); got != 1 {
		t.Errorf("warm builds after corrupt fetch = %d, want 1", got)
	}
	rep, err = sC.Run(context.Background(), Spec{Samples: testSamples, Seed: 7}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Samples != testSamples {
		t.Errorf("post-corruption session served %d samples, want %d", rep.Samples, testSamples)
	}
}

// An artifact published by a replay-only post restores, in a fresh
// process, a session that serves a checkpoint campaign with zero
// recordings: every session records its log, whichever engine built it.
func TestReplayPublishedArtifactServesCheckpoints(t *testing.T) {
	dir := t.TempDir()
	post := func(iv int64) (*obs.Registry, RecordJSON) {
		t.Helper()
		r, reg := artifactRegistry(artifact.NewStore(dir), "")
		ts := httptest.NewServer((&Server{Registry: r, Metrics: reg}).Handler())
		defer ts.Close()
		status, recs, raw := postBatch(t, ts, Request{
			Workload: testWorkload, Scale: testScale, Technique: "RCF", Style: "CMOVcc", Policy: "ALLBB",
			CkptInterval: iv, Campaigns: []SpecJSON{{Seed: 5, Samples: testSamples}},
		})
		if status != http.StatusOK || len(recs) != 1 || recs[0].Error != "" {
			t.Fatalf("ckpt_interval %d: status %d: %s", iv, status, raw)
		}
		return reg, recs[0]
	}
	regA, replay := post(0)
	if got := counter(regA, "artifact_publish_total"); got != 1 {
		t.Fatalf("replay post published %d artifacts, want 1", got)
	}
	regB, ckpt := post(-1)
	if got := counter(regB, "session_restores_total"); got != 1 {
		t.Errorf("restores = %d, want 1", got)
	}
	if got := counter(regB, "session_warm_builds_total"); got != 0 {
		t.Errorf("warm builds = %d, want 0", got)
	}
	if got := recordings(regB); got != 0 {
		t.Errorf("recordings = %d, want 0", got)
	}
	if ckpt.Executed == 0 || ckpt.Report != replay.Report {
		t.Errorf("checkpoint campaign executed %d samples; report equal to replay's = %v", ckpt.Executed, ckpt.Report == replay.Report)
	}
}
