package session

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/ckpt"
)

// FuzzCampaignRequest fuzzes the campaign wire: DecodeRequest never
// panics, and every body it accepts is one JSON value (nothing but
// whitespace after it) naming a technique in its canonical spelling,
// within the default limits, each bound checked here on its own rather
// than through the Limits methods.
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
	} {
		f.Add([]byte(s))
	}
	var l Limits
	lim := l.withDefaults()
	f.Fuzz(func(t *testing.T, raw []byte) {
		body, err := l.DecodeRequest(raw)
		if err != nil {
			return
		}
		if !json.Valid(raw) {
			t.Fatalf("accepted a body that is not exactly one JSON value: %q", raw)
		}
		if body.Workload == "" || len(body.Campaigns) == 0 {
			t.Fatalf("accepted a body without a workload or campaigns: %+v", body)
		}
		if row, err := check.Lookup(body.Technique); err != nil || row.Name != body.Technique {
			t.Fatalf("accepted technique %q, which is not a canonical name", body.Technique)
		}
		if !(body.Scale >= 0 && body.Scale <= lim.MaxScale) {
			t.Fatalf("accepted scale %g", body.Scale)
		}
		if body.Workers < 0 || body.Workers > lim.MaxWorkers {
			t.Fatalf("accepted workers %d", body.Workers)
		}
		if iv := body.CkptInterval; iv != -1 && iv != 0 && iv < ckpt.MinAutoInterval {
			t.Fatalf("accepted ckpt_interval %d", iv)
		}
		for _, c := range body.Campaigns {
			if c.Samples < 0 || c.SampleOffset < 0 ||
				uint64(c.SampleOffset)+uint64(c.Samples) > uint64(lim.MaxSamples) {
				t.Fatalf("accepted sample range [%d, +%d)", c.SampleOffset, c.Samples)
			}
		}
	})
}

// A body with anything but whitespace after its JSON value answers 400;
// trailing whitespace is fine.
func TestDecodeRequestRejectsTrailingData(t *testing.T) {
	const body = `{"workload":"x","campaigns":[{"samples":1}]}`
	var l Limits
	for _, tail := range []string{" trailing", "{}", ` {"workload":"y"}`, "]", "\x00"} {
		if _, err := l.DecodeRequest([]byte(body + tail)); err == nil {
			t.Errorf("accepted %q after the body", tail)
		}
	}
	for _, tail := range []string{"", "\n", " \r\n\t "} {
		if _, err := l.DecodeRequest([]byte(body + tail)); err != nil {
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
