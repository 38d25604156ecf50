package cpu

import "repro/internal/isa"

// Plan and RunPlan exist only for the fleet benchmark's cpu.plan_ns_per_step
// probe, a separate module that calls them. They are a shim over Run: there
// is no predecoded interpreter, and NewPlan ignores costs (the machine's own
// cost model applies).
type Plan struct{ code []isa.Instr }

// NewPlan wraps code for RunPlan.
func NewPlan(code []isa.Instr, _ *CostModel) Plan { return Plan{code: code} }

// RunPlan is Run over p's code.
func (m *Machine) RunPlan(p *Plan, maxSteps uint64) Stop { return m.Run(p.code, maxSteps) }
