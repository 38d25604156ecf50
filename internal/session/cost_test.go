package session

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/obs"
)

// The request cost gate: fixed seeded campaign requests in the fleet
// benchmark's two interactive and two bulk shapes go through
// Server.Handler on a warm session, and each request's cost is compared
// with the committed baseline in testdata/request_cost.json. The counts
// are host-independent, so the gate holds on a plain `go test`:
//
//   - mallocs and bytes: the runtime's allocation counters around the
//     request, with costHeadroom, since goroutine scheduling moves a few
//     allocations between requests;
//   - executed steps: the sum of ckpt_replayed_steps, exact;
//   - restored pages: ckpt.RestoredPages, with costHeadroom, since which
//     worker restores which sample varies (a worker that starts late
//     takes few samples but still seeks through the deltas before them);
//   - NDJSON bytes: the response body, with ndjsonSlack for the
//     wall-clock elapsed_sec field.
//
// A change that lowers a shape's cost lowers the baseline in the same
// change; the test logs the measured values to paste in.

// costHeadroom is the allowed rise, in percent, of the counts that are
// not exactly deterministic (mallocs, bytes, restored pages). Measured
// as the gate measures, they spread under 5% between runs.
const costHeadroom = 10

// ndjsonSlack is the allowed rise of a response's size in bytes: the
// formatted elapsed_sec varies in length.
const ndjsonSlack = 16

// costShape is one gated request configuration.
type costShape struct {
	name string
	// req is the request without its campaigns.
	req     Request
	samples int
	// requests is how many seeded requests the mean is taken over.
	requests int
}

var costShapes = []costShape{
	{"interactive 197.parser RCF/Jcc/RET-BE", Request{Workload: "197.parser", Technique: "RCF", Style: "Jcc", Policy: "RET-BE"}, 40, 20},
	{"interactive 181.mcf CFCSS/ALLBB", Request{Workload: "181.mcf", Technique: "CFCSS", Policy: "ALLBB"}, 40, 20},
	{"bulk 164.gzip RCF/Jcc/ALLBB", Request{Workload: "164.gzip", Technique: "RCF", Style: "Jcc", Policy: "ALLBB"}, 1500, 3},
	{"bulk 181.mcf CFCSS/ALLBB", Request{Workload: "181.mcf", Technique: "CFCSS", Policy: "ALLBB"}, 2000, 3},
}

// requestCost is one shape's mean cost per request.
type requestCost struct {
	Mallocs       uint64 `json:"mallocs"`
	Bytes         uint64 `json:"bytes"`
	ExecutedSteps uint64 `json:"executed_steps"`
	RestoredPages uint64 `json:"restored_pages"`
	NDJSONBytes   uint64 `json:"ndjson_bytes"`
}

// replayedSteps sums every technique's ckpt_replayed_steps histogram.
func replayedSteps(reg *obs.Registry) uint64 {
	var n uint64
	for name, h := range reg.Snapshot().Histograms {
		if strings.HasPrefix(name, "ckpt_replayed_steps{") {
			n += h.Sum
		}
	}
	return n
}

// measureCost warms one server on the shape's session with a first
// request, then posts s.requests seeded requests and returns their mean
// cost.
func measureCost(t *testing.T, s costShape) requestCost {
	t.Helper()
	reg := obs.NewRegistry()
	srv := &Server{Registry: NewRegistry(Config{Metrics: reg}), Metrics: reg}
	h := srv.Handler()
	post := func(seed int64) []byte {
		req := s.req
		req.Scale, req.CkptInterval, req.Workers = 0.05, -1, 2
		req.Campaigns = []SpecJSON{{Seed: seed, Samples: s.samples}}
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/campaigns", bytes.NewReader(raw)))
		if rec.Code != http.StatusOK || bytes.Contains(rec.Body.Bytes(), []byte(`"error"`)) {
			t.Fatalf("%s seed %d: status %d: %s", s.name, seed, rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes()
	}
	post(1000)
	var sum requestCost
	var before, after runtime.MemStats
	for seed := int64(1); seed <= int64(s.requests); seed++ {
		steps, pages := replayedSteps(reg), ckpt.RestoredPages()
		runtime.ReadMemStats(&before)
		body := post(seed)
		runtime.ReadMemStats(&after)
		sum.Mallocs += after.Mallocs - before.Mallocs
		sum.Bytes += after.TotalAlloc - before.TotalAlloc
		sum.RestoredPages += ckpt.RestoredPages() - pages
		sum.ExecutedSteps += replayedSteps(reg) - steps
		sum.NDJSONBytes += uint64(len(body))
	}
	n := uint64(s.requests)
	return requestCost{
		Mallocs:       sum.Mallocs / n,
		Bytes:         sum.Bytes / n,
		ExecutedSteps: sum.ExecutedSteps / n,
		RestoredPages: sum.RestoredPages / n,
		NDJSONBytes:   sum.NDJSONBytes / n,
	}
}

// withHeadroom is v plus costHeadroom percent.
func withHeadroom(v uint64) uint64 { return v + v*costHeadroom/100 }

func TestRequestCostGate(t *testing.T) {
	if testing.Short() {
		t.Skip("cost gate runs 50 campaigns")
	}
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	// Measure with one P and no collection, so that what a request
	// allocates does not depend on when the collector runs. Released
	// replayers go to one process-wide free list, so reusing them does
	// not depend on the P a request runs on; the pin is for the restored
	// pages: with one P the second worker rarely gets a sample before the
	// first has drained the cursor, so they come close to a one-worker
	// campaign's.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	raw, err := os.ReadFile(filepath.Join("testdata", "request_cost.json"))
	if err != nil {
		t.Fatal(err)
	}
	var baseline map[string]requestCost
	if err := json.Unmarshal(raw, &baseline); err != nil {
		t.Fatal(err)
	}
	measured := map[string]requestCost{}
	for _, s := range costShapes {
		got := measureCost(t, s)
		measured[s.name] = got
		want, ok := baseline[s.name]
		if !ok {
			t.Errorf("%s: no baseline entry", s.name)
			continue
		}
		if got.Mallocs > withHeadroom(want.Mallocs) || got.Bytes > withHeadroom(want.Bytes) ||
			got.ExecutedSteps > want.ExecutedSteps || got.RestoredPages > withHeadroom(want.RestoredPages) ||
			got.NDJSONBytes > want.NDJSONBytes+ndjsonSlack {
			t.Errorf("%s: a request costs more than the baseline allows (+%d%% mallocs, bytes and pages, +%d NDJSON bytes)\n got: %+v\nwant: %+v",
				s.name, costHeadroom, ndjsonSlack, got, want)
		}
	}
	out, _ := json.MarshalIndent(measured, "", "  ")
	t.Logf("measured cost per request (testdata/request_cost.json takes it when lower):\n%s", out)
}
