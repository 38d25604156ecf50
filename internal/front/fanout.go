package front

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/inject"
	"repro/internal/session"
)

// maxShardReplyBytes bounds one replica's shard reply: a single campaign
// record carrying its structured report.
const maxShardReplyBytes = 16 << 20

// fanoutCampaigns splits every campaign of the batch into n contiguous
// sample shards, runs each shard on its own replica (the key's ring
// owner first, then its successors, so shard 0 still rides the warm
// home session), merges the shard reports with inject.MergeReports and
// streams one record per campaign — the same wire shape, and a
// byte-identical normalized report, as the unsharded single-server run.
func (f *Front) fanoutCampaigns(w http.ResponseWriter, req *http.Request, body *session.Request, key string, n int) {
	owners := f.Ring().Owners(key, n)
	if len(owners) == 0 {
		session.WriteError(w, http.StatusServiceUnavailable, "no ready replicas")
		return
	}
	tenant := tenantOf(req)
	wantReport := body.ReturnReport

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Fanout", fmt.Sprintf("%d/%d", n, len(owners)))
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)

	for i, spec := range body.Campaigns {
		rec := session.RecordJSON{Index: i, Seed: spec.Seed, Samples: spec.Samples, SampleOffset: spec.SampleOffset}
		rep, cached, err := f.runSharded(req, body, spec, owners, tenant, n)
		if err != nil {
			rec.Error = err.Error()
		} else {
			session.FillRecord(&rec, rep)
			rec.Cached = cached
			if wantReport {
				rec.ReportStruct = rep
			}
		}
		if encErr := enc.Encode(rec); encErr != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		if err != nil {
			return // mirror the single-server stream: error record is last
		}
	}
}

// shardSpecs splits spec into n contiguous shards covering the same
// global sample range: sizes differ by at most one, empty shards
// dropped (more shards than samples).
func shardSpecs(spec session.SpecJSON, n int) []session.SpecJSON {
	base, rem := spec.Samples/n, spec.Samples%n
	shards := make([]session.SpecJSON, 0, n)
	offset := spec.SampleOffset
	for i := 0; i < n; i++ {
		size := base
		if i < rem {
			size++
		}
		if size == 0 {
			continue
		}
		shards = append(shards, session.SpecJSON{Seed: spec.Seed, Samples: size, SampleOffset: offset})
		offset += size
	}
	return shards
}

// runSharded executes one campaign as shards across owners and merges.
// Cached is true only when every shard answered from its graph cache.
func (f *Front) runSharded(req *http.Request, body *session.Request, spec session.SpecJSON, owners []string, tenant string, n int) (*inject.Report, bool, error) {
	shards := shardSpecs(spec, n)
	if len(shards) == 0 {
		// A zero-sample campaign still needs one (empty) run for its record.
		shards = []session.SpecJSON{spec}
	}
	type result struct {
		rec session.RecordJSON
		err error
	}
	results := make([]result, len(shards))
	done := make(chan int, len(shards))
	for i, sh := range shards {
		go func(i int, sh session.SpecJSON) {
			rec, err := f.runShard(req, body, sh, owners[i%len(owners)], tenant)
			results[i] = result{rec, err}
			done <- i
		}(i, sh)
	}
	for range shards {
		<-done
	}
	parts := make([]*inject.Report, len(shards))
	cached := true
	for i, r := range results {
		if r.err != nil {
			return nil, false, fmt.Errorf("shard %d/%d on %s: %w", i, len(shards), owners[i%len(owners)], r.err)
		}
		parts[i] = r.rec.ReportStruct
		cached = cached && r.rec.Cached
	}
	rep, err := inject.MergeReports(parts)
	if err != nil {
		return nil, false, fmt.Errorf("merge: %w", err)
	}
	return rep, cached, nil
}

// runShard posts one single-campaign request for a shard and decodes
// its record. The shard request always sets return_report: the merge
// needs the structured report, not the rendered text.
func (f *Front) runShard(req *http.Request, body *session.Request, shard session.SpecJSON, owner, tenant string) (session.RecordJSON, error) {
	var rec session.RecordJSON
	release, err := f.adm.Acquire(req.Context(), tenant, owner)
	if err != nil {
		return rec, err
	}
	defer release()

	sreq := session.Request{
		Workload:     body.Workload,
		Scale:        body.Scale,
		Technique:    body.Technique,
		Style:        body.Style,
		Policy:       body.Policy,
		CkptInterval: body.CkptInterval,
		Workers:      body.Workers,
		ReturnReport: true,
		Campaigns:    []session.SpecJSON{shard},
	}
	raw, err := json.Marshal(sreq)
	if err != nil {
		return rec, err
	}
	preq, err := http.NewRequestWithContext(req.Context(), http.MethodPost,
		owner+"/v1/campaigns", bytes.NewReader(raw))
	if err != nil {
		return rec, err
	}
	preq.Header.Set("Content-Type", "application/json")
	resp, err := f.client.Do(preq)
	if err != nil {
		return rec, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(io.LimitReader(resp.Body, maxShardReplyBytes+1))
	if err != nil {
		return rec, err
	}
	if len(out) > maxShardReplyBytes {
		return rec, fmt.Errorf("shard reply over %d bytes", maxShardReplyBytes)
	}
	if resp.StatusCode != http.StatusOK {
		var e session.ErrorJSON
		if json.Unmarshal(out, &e) == nil && e.Error != "" {
			return rec, fmt.Errorf("%s (%d)", e.Error, resp.StatusCode)
		}
		return rec, fmt.Errorf("replica answered %d", resp.StatusCode)
	}
	if err := json.Unmarshal(firstLine(out), &rec); err != nil {
		return rec, fmt.Errorf("bad shard record: %v", err)
	}
	if rec.Error != "" {
		return rec, fmt.Errorf("%s", rec.Error)
	}
	if rec.ReportStruct == nil {
		return rec, fmt.Errorf("replica returned no report_struct")
	}
	return rec, nil
}

// firstLine trims an NDJSON body to its first line (a single-campaign
// stream has exactly one record, but be tolerant of trailing frames).
func firstLine(b []byte) []byte {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		return b[:i+1]
	}
	return b
}
