package artifact

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/cpu"
	"repro/internal/dbt"
	"repro/internal/fp"
	"repro/internal/isa"
	"repro/internal/obs"
)

// The test workload mixes loops, calls, memory traffic and output so the
// snapshot carries blocks, stubs and a trace, and the checkpoint log
// carries page deltas.
const workload = `
.data 64
main:
    movi eax, 0
    movi ecx, 30
    movi esi, 0
outer:
    movi edx, 8
inner:
    addi eax, 7
    store [esi], eax
    load ebx, [esi]
    add eax, ebx
    addi esi, 1
    cmpi esi, 40
    jlt keep
    movi esi, 0
keep:
    subi edx, 1
    cmpi edx, 0
    jgt inner
    call bump
    out eax
    subi ecx, 1
    cmpi ecx, 0
    jgt outer
    out esi
    halt
bump:
    addi eax, 3
    ret
`

const maxSteps = 10_000_000

func mustAssemble(t testing.TB) *isa.Program {
	t.Helper()
	p, err := asm.Assemble("artifact-t", workload)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// warmArtifact builds a realistic dbt artifact: a warmed snapshot over
// the test workload plus its recorded checkpoint log.
func warmArtifact(t testing.TB) (*Artifact, *isa.Program) {
	t.Helper()
	p := mustAssemble(t)
	d := dbt.New(p, dbt.Options{})
	var clean *dbt.Result
	for i := 0; i < 3; i++ {
		if clean = d.Run(nil, maxSteps); clean.Stop.Reason != cpu.StopHalt {
			t.Fatalf("warm-up run %d: %v", i, clean.Stop)
		}
	}
	snap := d.Snapshot()
	log, err := ckpt.Record(snap, 500, maxSteps)
	if err != nil {
		t.Fatal(err)
	}
	st, err := snap.State()
	if err != nil {
		t.Fatal(err)
	}
	return &Artifact{
		Key:         "artifact-t|1|RCF|CMOVcc|ALLBB|-1",
		ProgramHash: fp.Program(p),
		MaxSteps:    maxSteps,
		CleanSteps:  log.Final.Steps,
		Snapshot:    st,
		Log:         log,
	}, p
}

func testFingerprint(a *Artifact) string {
	return Fingerprint(a.Key, "RCF", a.ProgramHash, a.MaxSteps)
}

// The fingerprint must separate every axis that shapes the warm state.
func TestFingerprintDistinguishes(t *testing.T) {
	base := Fingerprint("k", "RCF", "p", 100)
	for name, other := range map[string]string{
		"key":       Fingerprint("k2", "RCF", "p", 100),
		"technique": Fingerprint("k", "CFCSS", "p", 100),
		"program":   Fingerprint("k", "RCF", "p2", 100),
		"maxsteps":  Fingerprint("k", "RCF", "p", 200),
	} {
		if other == base {
			t.Errorf("%s change did not change the fingerprint", name)
		}
	}
}

// Each technique's fingerprint is pinned at one fixed key in canonical
// spelling (the session key's rendering), so artifacts published before
// the technique table keep restoring. The rows that read no style key it
// as "".
func TestCanonicalFingerprintsPinned(t *testing.T) {
	want := map[string]string{
		"none":  "artifact|v1|e3|t:none.1|181.mcf|0.05|none||ALLBB|prog:d1g35t|max:50000000",
		"ECF":   "artifact|v1|e3|t:ECF.1|181.mcf|0.05|ECF|CMOVcc|ALLBB|prog:d1g35t|max:50000000",
		"EdgCF": "artifact|v1|e3|t:EdgCF.1|181.mcf|0.05|EdgCF|CMOVcc|ALLBB|prog:d1g35t|max:50000000",
		"RCF":   "artifact|v1|e3|t:RCF.1|181.mcf|0.05|RCF|CMOVcc|ALLBB|prog:d1g35t|max:50000000",
		"CFCSS": "artifact|v1|e3|t:CFCSS.1|181.mcf|0.05|CFCSS||ALLBB|prog:d1g35t|max:50000000",
		"ECCA":  "artifact|v1|e3|t:ECCA.1|181.mcf|0.05|ECCA||ALLBB|prog:d1g35t|max:50000000",
	}
	for _, name := range check.Names(nil) {
		id, err := check.Identify(name, "CMOVcc", "ALLBB")
		if err != nil {
			t.Fatal(err)
		}
		tech, style, pol := id.Names()
		key := "181.mcf|0.05|" + tech + "|" + style + "|" + pol
		if got := Fingerprint(key, tech, "d1g35t", 50000000); got != want[name] {
			t.Errorf("%s: fingerprint %s, want %s", name, got, want[name])
		}
	}
}

// Encode/Decode must round-trip every artifact shape — translator
// sessions (snapshot+log), static baselines (log only) and replay
// sessions (snapshot only) — and re-encode to the identical bytes, so a
// republished fetch stores the same blob under the same digest.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	full, _ := warmArtifact(t)
	static := &Artifact{
		Key: full.Key, ProgramHash: full.ProgramHash, MaxSteps: full.MaxSteps,
		CleanSteps: full.CleanSteps, Static: true, Log: full.Log,
	}
	replay := &Artifact{
		Key: full.Key, ProgramHash: full.ProgramHash, MaxSteps: full.MaxSteps,
		CleanSteps: full.CleanSteps, Snapshot: full.Snapshot,
	}
	for name, a := range map[string]*Artifact{"dbt": full, "static": static, "replay": replay} {
		t.Run(name, func(t *testing.T) {
			fpr := testFingerprint(a)
			blob := a.Encode(fpr)
			got, err := Decode(blob, fpr)
			if err != nil {
				t.Fatal(err)
			}
			if got.Key != a.Key || got.ProgramHash != a.ProgramHash ||
				got.MaxSteps != a.MaxSteps || got.CleanSteps != a.CleanSteps ||
				got.Static != a.Static {
				t.Errorf("header mismatch: %+v", got)
			}
			if !reflect.DeepEqual(got.Snapshot, a.Snapshot) {
				t.Error("snapshot state did not round-trip")
			}
			if (got.Log == nil) != (a.Log == nil) {
				t.Fatalf("log presence: got %v, want %v", got.Log != nil, a.Log != nil)
			}
			if a.Log != nil && !reflect.DeepEqual(got.Log.Points, a.Log.Points) {
				t.Error("log points did not round-trip")
			}
			if again := got.Encode(fpr); !bytes.Equal(again, blob) {
				t.Error("re-encoding a decoded artifact changed the bytes")
			}
		})
	}
}

// A decoded snapshot must restore into a translator whose clean run is
// indistinguishable from the original's.
func TestDecodedSnapshotRestores(t *testing.T) {
	a, p := warmArtifact(t)
	fpr := testFingerprint(a)
	got, err := Decode(a.Encode(fpr), fpr)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := dbt.RestoreSnapshot(p, dbt.Options{}, got.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	res := snap.NewDBT().Run(nil, maxSteps)
	if res.Stop.Reason != cpu.StopHalt {
		t.Fatalf("restored clean run: %v", res.Stop)
	}
	// Result stats are cumulative: a clean run over the restored state must
	// add nothing to the artifact's translation baseline.
	if res.Stats.BlocksTranslated != got.Snapshot.Stats.BlocksTranslated ||
		res.Stats.GuestInstrsTranslated != got.Snapshot.Stats.GuestInstrsTranslated {
		t.Errorf("restored clean run translated blocks: %+v vs baseline %+v",
			res.Stats, got.Snapshot.Stats)
	}
}

// Every damaged or mismatched envelope must be rejected with the right
// error class: unreadable bytes are ErrCorrupt, a clean decode under the
// wrong fingerprint is ErrStale.
func TestDecodeRejects(t *testing.T) {
	a, _ := warmArtifact(t)
	fpr := testFingerprint(a)
	blob := a.Encode(fpr)

	if _, err := Decode(blob, fpr+"x"); !errors.Is(err, ErrStale) {
		t.Errorf("wrong fingerprint: got %v, want ErrStale", err)
	}
	stale := Fingerprint(a.Key, "RCF", a.ProgramHash, a.MaxSteps+1)
	if _, err := Decode(a.Encode(stale), fpr); !errors.Is(err, ErrStale) {
		t.Errorf("stale version: got %v, want ErrStale", err)
	}

	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := Decode(flipped, fpr); !errors.Is(err, ErrCorrupt) {
		t.Errorf("flipped byte: got %v, want ErrCorrupt", err)
	}
	if _, err := Decode(blob[:len(blob)-3], fpr); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated: got %v, want ErrCorrupt", err)
	}
	if _, err := Decode(nil, fpr); !errors.Is(err, ErrCorrupt) {
		t.Error("nil buffer did not report ErrCorrupt")
	}

	// A static artifact carrying a snapshot is internally inconsistent.
	bad := &Artifact{Key: a.Key, CleanSteps: 1, Static: true, Snapshot: a.Snapshot}
	if _, err := Decode(bad.Encode(fpr), fpr); !errors.Is(err, ErrCorrupt) {
		t.Errorf("static+snapshot: got %v, want ErrCorrupt", err)
	}
}

// The store must persist blobs and refs across instances, re-verify disk
// blobs against their digest, and refuse non-digest names.
func TestStorePersistence(t *testing.T) {
	dir := t.TempDir()
	s1 := NewStore(dir)
	blob := []byte("warm state bytes")
	digest := s1.Put(blob)
	ref := RefID("some-fingerprint")
	if err := s1.Link(ref, digest); err != nil {
		t.Fatal(err)
	}

	s2 := NewStore(dir)
	if d, ok := s2.Resolve(ref); !ok || d != digest {
		t.Fatalf("fresh store resolve = (%q, %v), want (%q, true)", d, ok, digest)
	}
	if b, ok := s2.Get(digest); !ok || !bytes.Equal(b, blob) {
		t.Fatal("fresh store did not serve the persisted blob")
	}
	if refs := s2.Refs(); refs[ref] != digest {
		t.Errorf("ref index missing persisted ref: %v", refs)
	}

	// A tampered disk blob reads as missing, never as wrong bytes.
	s3 := NewStore(dir)
	path := filepath.Join(dir, "blobs", digest)
	if err := os.WriteFile(path, []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s3.Get(digest); ok {
		t.Error("tampered blob served instead of missing")
	}

	if err := s1.Link("not-a-digest", digest); err == nil {
		t.Error("non-hex ref accepted")
	}
	if err := s1.Link(ref, strings.Repeat("a", 64)); err == nil {
		t.Error("ref to unknown blob accepted")
	}
	var nilStore *Store
	if _, ok := nilStore.Get(digest); ok {
		t.Error("nil store served a blob")
	}
}

// The HTTP surface: uploads are digest-verified, refs may only name held
// blobs, reads are faithful.
func TestHandler(t *testing.T) {
	srv := httptest.NewServer(Handler(NewStore("")))
	defer srv.Close()

	blob := []byte("served bytes")
	digest := Digest(blob)
	ref := RefID("fp")

	put := func(path string, body []byte) int {
		req, _ := http.NewRequest(http.MethodPut, srv.URL+path, bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		b.ReadFrom(resp.Body)
		return resp.StatusCode, b.String()
	}

	if code := put("/v1/artifacts/ref/"+ref, []byte(digest)); code != http.StatusConflict {
		t.Errorf("ref before blob: status %d, want 409", code)
	}
	if code := put("/v1/artifacts/blob/"+digest, []byte("other bytes")); code != http.StatusBadRequest {
		t.Errorf("blob under wrong digest: status %d, want 400", code)
	}
	if code := put("/v1/artifacts/blob/"+digest, blob); code != http.StatusNoContent {
		t.Errorf("blob upload: status %d, want 204", code)
	}
	if code := put("/v1/artifacts/ref/"+ref, []byte(digest)); code != http.StatusNoContent {
		t.Errorf("ref upload: status %d, want 204", code)
	}
	if code, body := get("/v1/artifacts/ref/" + ref); code != http.StatusOK || body != digest {
		t.Errorf("ref read = (%d, %q), want (200, digest)", code, body)
	}
	if code, body := get("/v1/artifacts/blob/" + digest); code != http.StatusOK || body != string(blob) {
		t.Errorf("blob read = (%d, %q)", code, body)
	}
	if code, _ := get("/v1/artifacts/blob/" + strings.Repeat("0", 64)); code != http.StatusNotFound {
		t.Errorf("missing blob: status %d, want 404", code)
	}
	if code, body := get("/v1/artifacts"); code != http.StatusOK || !strings.Contains(body, digest) {
		t.Errorf("index = (%d, %q)", code, body)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Errorf("healthz: status %d", code)
	}
}

func counterOf(reg *obs.Registry, name string) uint64 {
	return reg.Snapshot().Counters[name]
}

// The full fetch failure matrix: every way a store can lie — corrupt
// body, stale fingerprint, truncated frame, wrong blob, server errors —
// must return nil (the caller builds locally) and bump exactly the
// counter matching the failure class.
func TestClientFailureMatrix(t *testing.T) {
	a, _ := warmArtifact(t)
	fpr := testFingerprint(a)
	blob := a.Encode(fpr)
	digest := Digest(blob)
	ref := RefID(fpr)

	corrupt := append([]byte(nil), blob...)
	corrupt[len(corrupt)/2] ^= 0x01
	truncated := blob[:len(blob)-5]
	staleFpr := Fingerprint(a.Key, "RCF", a.ProgramHash, a.MaxSteps+1)
	staleBlob := a.Encode(staleFpr)

	cases := []struct {
		name    string
		refBody string // digest the ref endpoint returns ("" = 404)
		refCode int
		blob    []byte // blob the blob endpoint returns (nil = 404)
		want    string // counter expected to bump
	}{
		{"miss", "", http.StatusNotFound, nil, "artifact_fetch_misses_total"},
		{"server-500", "boom", http.StatusInternalServerError, nil, "artifact_fetch_errors_total"},
		{"blob-gone", digest, http.StatusOK, nil, "artifact_fetch_errors_total"},
		{"corrupt-body", Digest(corrupt), http.StatusOK, corrupt, "artifact_fetch_corrupt_total"},
		{"digest-mismatch", digest, http.StatusOK, corrupt, "artifact_fetch_corrupt_total"},
		{"truncated-frame", Digest(truncated), http.StatusOK, truncated, "artifact_fetch_corrupt_total"},
		{"wrong-fingerprint", Digest(staleBlob), http.StatusOK, staleBlob, "artifact_fetch_stale_total"},
	}
	classes := []string{
		"artifact_fetch_hits_total", "artifact_fetch_misses_total",
		"artifact_fetch_stale_total", "artifact_fetch_corrupt_total",
		"artifact_fetch_errors_total",
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mux := http.NewServeMux()
			mux.HandleFunc("GET /v1/artifacts/ref/"+ref, func(w http.ResponseWriter, r *http.Request) {
				if tc.refBody == "" {
					http.Error(w, "unknown ref", http.StatusNotFound)
					return
				}
				w.WriteHeader(tc.refCode)
				w.Write([]byte(tc.refBody))
			})
			mux.HandleFunc("GET /v1/artifacts/blob/", func(w http.ResponseWriter, r *http.Request) {
				if tc.blob == nil {
					http.Error(w, "unknown blob", http.StatusNotFound)
					return
				}
				w.Write(tc.blob)
			})
			srv := httptest.NewServer(mux)
			defer srv.Close()

			reg := obs.NewRegistry()
			c := &Client{BaseURL: srv.URL, Local: NewStore(""), Metrics: reg}
			if got := c.Fetch(fpr); got != nil {
				t.Fatal("fetch returned an artifact; want nil fall-back to local build")
			}
			for _, class := range classes {
				want := uint64(0)
				if class == tc.want {
					want = 1
				}
				if got := counterOf(reg, class); got != want {
					t.Errorf("%s = %d, want %d", class, got, want)
				}
			}
		})
	}
}

// A verified fetch is cached pull-through: the second fetch must be
// served by the local store even after the remote disappears.
func TestClientPullThroughCache(t *testing.T) {
	a, _ := warmArtifact(t)
	fpr := testFingerprint(a)

	store := NewStore("")
	srv := httptest.NewServer(Handler(store))
	publisher := &Client{BaseURL: srv.URL, Metrics: obs.NewRegistry()}
	publisher.Publish(a, fpr)
	if got := counterOf(publisher.Metrics, "artifact_publish_total"); got != 1 {
		t.Fatalf("publish total = %d, want 1", got)
	}

	reg := obs.NewRegistry()
	c := &Client{BaseURL: srv.URL, Local: NewStore(""), Metrics: reg}
	if c.Fetch(fpr) == nil {
		t.Fatal("remote fetch failed")
	}
	srv.Close()
	if c.Fetch(fpr) == nil {
		t.Fatal("local pull-through cache did not serve after the remote died")
	}
	if got := counterOf(reg, "artifact_fetch_hits_total"); got != 2 {
		t.Errorf("hits = %d, want 2", got)
	}

	// A fresh client with no remote and an empty local store misses.
	lonely := &Client{Local: NewStore(""), Metrics: obs.NewRegistry()}
	if lonely.Fetch(fpr) != nil {
		t.Error("empty local-only client fetched an artifact")
	}
	if got := counterOf(lonely.Metrics, "artifact_fetch_misses_total"); got != 1 {
		t.Errorf("lonely misses = %d, want 1", got)
	}

	// A nil client is the disabled tier.
	var nilClient *Client
	if nilClient.Fetch(fpr) != nil {
		t.Error("nil client fetched an artifact")
	}
	nilClient.Publish(a, fpr) // must not panic
}

// A publisher with a failing remote still warms its local store and
// counts the error.
func TestPublishRemoteFailure(t *testing.T) {
	a, _ := warmArtifact(t)
	fpr := testFingerprint(a)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "full", http.StatusInsufficientStorage)
	}))
	defer srv.Close()

	reg := obs.NewRegistry()
	c := &Client{BaseURL: srv.URL, Local: NewStore(""), Metrics: reg}
	c.Publish(a, fpr)
	if got := counterOf(reg, "artifact_publish_errors_total"); got != 1 {
		t.Errorf("publish errors = %d, want 1", got)
	}
	// The local copy still serves.
	local := &Client{Local: c.Local, Metrics: obs.NewRegistry()}
	if local.Fetch(fpr) == nil {
		t.Error("local store not warmed by the failed remote publish")
	}
}
