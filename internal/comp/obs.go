package comp

import (
	"fmt"

	"repro/internal/obs"
)

// Publish adds the stats as counters to reg (nil-safe), labeled with the
// technique name, mirroring dbt.Stats.Publish: campaigns sum per-sample
// deltas into one Stats and publish once, so worker sharding never skews
// the series.
func (s Stats) Publish(reg *obs.Registry, technique string) {
	if reg == nil {
		return
	}
	l := fmt.Sprintf("{technique=%q}", technique)
	reg.Counter("comp_blocks_compiled_total" + l).Add(s.BlocksCompiled)
	reg.Counter("comp_chain_hits_total" + l).Add(s.ChainHits)
	reg.Counter("comp_trace_promotions_total" + l).Add(s.TracePromotions)
	reg.Counter("comp_interpreted_steps_total" + l).Add(s.InterpretedSteps)
}
