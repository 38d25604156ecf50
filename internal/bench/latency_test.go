package bench

import (
	"context"
	"strings"
	"testing"

	"repro/internal/dbt"
	"repro/internal/inject"
)

func TestPolicyLatencyShape(t *testing.T) {
	rows, err := PolicyLatency(context.Background(), 0.1, 120, 21, inject.Options{Workers: 2, CkptInterval: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byPol := map[dbt.Policy]PolicyRow{}
	for _, r := range rows {
		byPol[r.Policy] = r
	}
	all, end := byPol[dbt.PolicyAllBB], byPol[dbt.PolicyEnd]
	// ALLBB: slowest, lowest latency. END: fastest, highest latency.
	if !(all.Slowdown > end.Slowdown) {
		t.Errorf("slowdown: ALLBB %.3f !> END %.3f", all.Slowdown, end.Slowdown)
	}
	if !(all.MeanLatency < end.MeanLatency) {
		t.Errorf("latency: ALLBB %.0f !< END %.0f", all.MeanLatency, end.MeanLatency)
	}
	// Coverage stays high everywhere: the signature persists, so sparse
	// checks still catch surviving errors.
	for _, r := range rows {
		if r.Coverage < 0.85 {
			t.Errorf("%v coverage %.3f suspiciously low", r.Policy, r.Coverage)
		}
	}
	s := FormatPolicyLatency(rows)
	if !strings.Contains(s, "ALLBB") || !strings.Contains(s, "latency") {
		t.Errorf("format:\n%s", s)
	}
}
