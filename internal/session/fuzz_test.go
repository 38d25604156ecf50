package session

import (
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/check"
)

// FuzzCampaignRequest fuzzes the campaign wire: DecodeRequest never
// panics, and every body it accepts is one JSON value (nothing but
// whitespace after it) naming its technique, style and policy in their
// canonical spelling, within the served bounds, each bound checked here
// on its own rather than through the Check functions. Decoding is
// idempotent: the accepted request, encoded again, decodes to itself.
func FuzzCampaignRequest(f *testing.F) {
	for _, s := range []string{
		`{"workload":"164.gzip","scale":0.05,"technique":"RCF","style":"CMOVcc","policy":"ALLBB","ckpt_interval":-1,"campaigns":[{"seed":1,"samples":200}]}`,
		`{"workload":"181.mcf","technique":"CFCSS","ckpt_interval":0,"workers":4,"campaigns":[{"seed":1,"samples":2000},{"seed":2,"samples":10,"sample_offset":5}]}`,
		`{"workload":"x","ckpt_interval":512,"progress_ms":100,"return_report":true,"campaigns":[{"seed":-3,"samples":0}]}`,
		`{"workload":"x","campaigns":[{"samples":1,"sample_offset":9223372036854775807}]}`,
		`{"workload":"x","scale":1e308,"campaigns":[{"samples":1}]}`,
		`{"workload":"x","ckpt_interval":-2,"campaigns":[{"samples":1}]}`,
		`{"workload":"x","campaigns":[]}`,
		`{"workload":"","campaigns":[{"samples":1}]}`,
		`{"workload":"x","bogus":1,"campaigns":[{"samples":1}]}`,
		`{"workload":"x","campaigns":[{"samples":1}]} trailing`,
		`[]`,
		``,
		`{"workload":"x","technique":"Rcf","campaigns":[{"samples":1}]}`,
		`{"workload":"164.gzip","technique":"rcf","style":"cmov","campaigns":[{"samples":1}]}`,
		`{"workload":"176.gcc","technique":"EdgCF","policy":"retbe","campaigns":[{"samples":1}]}`,
		`{"workload":"181.mcf","technique":"ECF","policy":"Allbb","campaigns":[{"samples":1}]}`,
		`{"workload":"181.mcf","technique":"CFCSS","style":"CMOVcc","policy":"allbb","campaigns":[{"samples":1}]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		body, err := DecodeRequest(raw)
		if err != nil {
			return
		}
		if !json.Valid(raw) {
			t.Fatalf("accepted a body that is not exactly one JSON value: %q", raw)
		}
		if body.Workload == "" || len(body.Campaigns) == 0 {
			t.Fatalf("accepted a body without a workload or campaigns: %+v", body)
		}
		id, err := check.Identify(body.Technique, body.Style, body.Policy)
		if err != nil {
			t.Fatalf("accepted names %q/%q/%q: %v", body.Technique, body.Style, body.Policy, err)
		}
		if tech, style, pol := id.Names(); tech != body.Technique || style != body.Style || pol != body.Policy {
			t.Fatalf("accepted %q/%q/%q, whose canonical spelling is %q/%q/%q",
				body.Technique, body.Style, body.Policy, tech, style, pol)
		}
		if !(body.Scale >= 0 && body.Scale <= DefaultMaxScale) {
			t.Fatalf("accepted scale %g", body.Scale)
		}
		if body.Workers < 0 || body.Workers > DefaultMaxWorkers {
			t.Fatalf("accepted workers %d", body.Workers)
		}
		if iv := body.CkptInterval; iv != -1 && iv != 0 {
			t.Fatalf("accepted ckpt_interval %d", iv)
		}
		for _, c := range body.Campaigns {
			if c.Samples < 0 || c.SampleOffset < 0 ||
				uint64(c.SampleOffset)+uint64(c.Samples) > uint64(DefaultMaxSamples) {
				t.Fatalf("accepted sample range [%d, +%d)", c.SampleOffset, c.Samples)
			}
		}
		again, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		if twice, err := DecodeRequest(again); err != nil || !reflect.DeepEqual(twice, body) {
			t.Fatalf("re-encoded request decodes differently (%v)\n got: %+v\nwant: %+v", err, twice, body)
		}
	})
}

// A body with anything but whitespace after its JSON value answers 400;
// trailing whitespace is fine.
func TestDecodeRequestRejectsTrailingData(t *testing.T) {
	const body = `{"workload":"164.gzip","campaigns":[{"samples":1}]}`
	for _, tail := range []string{" trailing", "{}", ` {"workload":"y"}`, "]", "\x00"} {
		if _, err := DecodeRequest([]byte(body + tail)); err == nil {
			t.Errorf("accepted %q after the body", tail)
		}
	}
	for _, tail := range []string{"", "\n", " \r\n\t "} {
		if _, err := DecodeRequest([]byte(body + tail)); err != nil {
			t.Errorf("rejected %q after the body: %v", tail, err)
		}
	}

	ts, _ := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body+" trailing"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("trailing data: status %d, want 400", resp.StatusCode)
	}
}
