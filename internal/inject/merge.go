package inject

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/errmodel"
)

// MergeReports reassembles the shard reports of one split campaign into
// the report the unsharded campaign would have produced. Shards must come
// from the same (program, technique, policy) and tile a contiguous global
// sample range [first.SampleOffset, last.SampleOffset+last.Samples) with
// no gaps or overlaps; order does not matter. The merged report's
// FormatNormalized text is byte-identical to the single-run report
// because every aggregate is a sum of per-sample values that are a pure
// function of (Seed, global index), and the warm-up work each shard
// repeats (recorded in WarmTranslator/WarmCompiled) is counted exactly
// once. The inputs are not mutated.
func MergeReports(parts []*Report) (*Report, error) {
	if len(parts) == 0 {
		return nil, errors.New("inject: merge: no shard reports")
	}
	sorted := make([]*Report, len(parts))
	copy(sorted, parts)
	sort.SliceStable(sorted, func(a, b int) bool {
		return sorted[a].SampleOffset < sorted[b].SampleOffset
	})
	first := sorted[0]
	m := &Report{
		Program:        first.Program,
		Technique:      first.Technique,
		Policy:         first.Policy,
		SampleOffset:   first.SampleOffset,
		ByCat:          map[errmodel.Category]*Agg{},
		WarmTranslator: first.WarmTranslator,
		WarmCompiled:   first.WarmCompiled,
	}
	next := first.SampleOffset
	for idx, p := range sorted {
		if p.Program != first.Program || p.Technique != first.Technique || p.Policy != first.Policy {
			return nil, fmt.Errorf("inject: merge: shard %s/%s/%s does not match %s/%s/%s",
				p.Program, p.Technique, p.Policy, first.Program, first.Technique, first.Policy)
		}
		if p.SampleOffset != next {
			return nil, fmt.Errorf("inject: merge: shard at offset %d is not contiguous with previous end %d",
				p.SampleOffset, next)
		}
		if p.WarmTranslator != first.WarmTranslator || p.WarmCompiled != first.WarmCompiled {
			return nil, fmt.Errorf("inject: merge: shard at offset %d disagrees on the warm-up baseline",
				p.SampleOffset)
		}
		next += p.Samples
		// Translator/Compiled each include the shard's own copy of the
		// identical warm-up baseline; keep the first and strip the rest.
		// Shards keep Records in global sample order, so adding them in
		// offset order keeps the merged slice sorted.
		part := *p
		if idx > 0 {
			part.Translator = p.Translator.Sub(p.WarmTranslator)
			part.Compiled = p.Compiled.Sub(p.WarmCompiled)
		}
		m.Add(&part)
		// Shards run concurrently on different replicas: the merged run is
		// as wide as its widest shard and as long as its slowest.
		m.Workers = max(m.Workers, p.Workers)
		m.Elapsed = max(m.Elapsed, p.Elapsed)
	}
	return m, nil
}
