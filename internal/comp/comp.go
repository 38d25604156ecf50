// Package comp implements the block-compiled execution backend: each basic
// block (and each straight-line hot trace across unconditional jumps) is
// compiled once into a fused superinstruction array whose body keeps the
// instruction pointer, step and cycle counters and the condition flags in
// locals, materializing flags only at reads and at tier boundaries. Blocks
// dispatch block-to-block through direct chain slots — pointers patched into
// the terminator the first time a transition resolves, mirroring the DBT's
// patched-cache chaining — with a dense by-address table as the unchained
// fallback.
//
// Execution is two-tier: a block starts life on the reference interpreter
// (Machine.Step, block at a time) and an execution-count threshold
// promotes it to compiled form; unconditional forward jumps extend the
// compiled region into a trace, as in the paper's §5 hot-trace backend.
// Machine.Step is the only other tier and the differential ground truth:
// the compiled tier is a pure performance transform, byte-identical in
// architectural state, counters and output, and it steps aside — exactly
// and mid-run — whenever semantics need the reference path (branch hooks,
// the firing step of a planted fault, step-budget boundaries that fall
// inside a block).
package comp

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/isa"
)

// Backend selects the execution engine used for guest and translated code.
type Backend uint8

// Backends. BackendAuto resolves to the compiled backend: it is
// byte-identical to the step oracle by construction and falls back to it on
// its own wherever required.
const (
	BackendAuto Backend = iota
	BackendStep
	BackendCompile
)

var backendNames = [...]string{"auto", "step", "compile"}

// String names the backend as accepted by ParseBackend.
func (b Backend) String() string {
	if int(b) < len(backendNames) {
		return backendNames[b]
	}
	return fmt.Sprintf("backend(%d)", uint8(b))
}

// ParseBackend parses a -backend flag value.
func ParseBackend(s string) (Backend, error) {
	for i, n := range backendNames {
		if s == n {
			return Backend(i), nil
		}
	}
	return BackendAuto, fmt.Errorf("unknown backend %q (want auto, step or compile)", s)
}

// Compiled reports whether the backend uses the compiled tier.
func (b Backend) Compiled() bool { return b == BackendAuto || b == BackendCompile }

// Run advances m over code on backend b until a stop or the step budget:
// the step oracle, or the compiled engine e (a nil e runs the oracle).
func Run(b Backend, e *Engine, m *cpu.Machine, code []isa.Instr, maxSteps uint64) cpu.Stop {
	if b == BackendStep {
		return m.Run(code, maxSteps)
	}
	return e.Run(m, code, maxSteps)
}

// Stats counts compiled-backend activity. Counter sums are order-independent,
// so per-sample totals merged across workers are worker-invariant.
type Stats struct {
	BlocksCompiled  uint64 // blocks promoted to compiled form
	TracePromotions uint64 // compiled blocks that extended across >=1 jump
	ChainHits       uint64 // block transitions resolved through a chain slot
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.BlocksCompiled += other.BlocksCompiled
	s.TracePromotions += other.TracePromotions
	s.ChainHits += other.ChainHits
}

// DefaultThreshold is the execution count that promotes a block from the
// interpreted tier to compiled form.
const DefaultThreshold = 8

// heatPoison marks a block start whose compilation failed (unknown opcode,
// falls off the code image); it is never retried.
const heatPoison = ^uint32(0)

// span is one compiled guest address range [lo, hi).
type span struct{ lo, hi uint32 }

// cblock is one compiled block or trace: a fused uop array plus the bulk
// step/cycle totals charged on a full pass through it.
type cblock struct {
	start       uint32
	totalSteps  uint32
	totalCycles uint32
	uops        []uop
	spans       []span // covered guest ranges (one per trace segment)
	dead        bool   // invalidated; chain slots to it are unlinked
	// cold marks a block a frozen view compiled into its private cold
	// tier: the view may patch its chain slots, never a shared block's.
	cold bool
}

// covers reports whether addr lies inside any compiled segment.
func (b *cblock) covers(addr uint32) bool {
	for _, s := range b.spans {
		if addr >= s.lo && addr < s.hi {
			return true
		}
	}
	return false
}

// core is the compiled-block store. It is mutated only while a single owner
// drives it (translation-time warm-up); Freeze makes it immutable, after
// which any number of Engine views may execute from it concurrently.
type core struct {
	costs     *cpu.CostModel
	threshold uint32
	frozen    bool
	byAddr    []*cblock // dense: block start addr -> compiled block
	heat      []uint32  // execution counts for not-yet-compiled starts; nil once frozen
	blocks    []*cblock
}

func (c *core) grow(n int) {
	if n <= len(c.byAddr) {
		return
	}
	byAddr := make([]*cblock, n)
	copy(byAddr, c.byAddr)
	c.byAddr = byAddr
	heat := make([]uint32, n)
	copy(heat, c.heat)
	c.heat = heat
}

func (c *core) reset() {
	clear(c.byAddr)
	clear(c.heat)
	c.blocks = c.blocks[:0]
}

// invalidate drops every compiled block covering addr and unlinks chain
// slots that point at the dropped blocks. Caller guarantees !frozen.
func (c *core) invalidate(addr uint32) {
	kept := c.blocks[:0]
	dropped := false
	for _, b := range c.blocks {
		if b.covers(addr) {
			b.dead = true
			c.byAddr[b.start] = nil
			c.heat[b.start] = 0
			dropped = true
		} else {
			kept = append(kept, b)
		}
	}
	c.blocks = kept
	if !dropped {
		return
	}
	for _, b := range c.blocks {
		for i := range b.uops {
			u := &b.uops[i]
			if u.taken != nil && u.taken.dead {
				u.taken = nil
			}
			if u.fall != nil && u.fall.dead {
				u.fall = nil
			}
		}
	}
}

// Engine is one execution view over a compiled-block core. The owning engine
// (unfrozen core) compiles and invalidates; views cloned from a frozen core
// share the compiled blocks read-only and keep their own code alias, stats
// and disable flag, so per-sample snapshot clones pay nothing for
// compilation and may diverge (a clone whose code cache is patched mid-run
// under a shared block disables its compiled tier and finishes on the
// interpreter). A view that strays onto starts the frozen core left cold
// (a fault into code the warm-up never reached) promotes them privately,
// with the owner's threshold, into its own cold tier.
type Engine struct {
	c        *core
	code     []isa.Instr
	disabled bool
	Stats    Stats

	// Frozen views only, allocated on the first cold start: the heat of
	// cold starts and the blocks this view compiled at them. Cold blocks
	// chain among themselves and into shared blocks; shared blocks never
	// chain into cold ones.
	coldHeat   map[uint32]uint32
	coldBlocks map[uint32]*cblock
}

// NewEngine returns an engine compiling code against the cost model (nil
// selects DefaultCosts) with the given promotion threshold (<=0 selects
// DefaultThreshold).
func NewEngine(code []isa.Instr, costs *cpu.CostModel, threshold int) *Engine {
	if costs == nil {
		costs = cpu.DefaultCosts()
	}
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	c := &core{costs: costs, threshold: uint32(threshold)}
	c.grow(len(code))
	return &Engine{c: c, code: code}
}

// Sync re-aliases the engine onto code after the underlying slice grew,
// shrank or was reallocated (the DBT's code cache).
// Growth is append-only and keeps compiled blocks valid; a shrink is a full
// cache invalidation: the owner rebuilds, a frozen view disables itself.
func (e *Engine) Sync(code []isa.Instr) {
	if e == nil || e.disabled {
		return
	}
	if e.c.frozen {
		if len(code) < len(e.c.byAddr) {
			e.disabled = true
			return
		}
		e.code = code
		return
	}
	if len(code) < len(e.code) {
		e.c.reset()
	}
	e.code = code
	e.c.grow(len(code))
}

// Redecode invalidates the compiled blocks covering addr after an in-place
// code patch (the DBT's chain patching rewrites both the trapout stub slot
// and the referring branch's immediate — both sites must be reported). A
// frozen view cannot recompile, so a patch under a compiled block disables
// its compiled tier for the rest of the run.
func (e *Engine) Redecode(addr uint32) {
	if e == nil || e.disabled {
		return
	}
	if !e.c.frozen {
		e.c.invalidate(addr)
		return
	}
	for _, b := range e.c.blocks {
		if b.covers(addr) {
			e.disabled = true
			return
		}
	}
	// Only cold blocks reference cold blocks: drop the whole cold tier
	// and let the patched code heat up afresh.
	for _, b := range e.coldBlocks {
		if b.covers(addr) {
			e.coldBlocks, e.coldHeat = nil, nil
			return
		}
	}
}

// Freeze eagerly compiles every block start in starts, resolves all chain
// slots, and makes the core immutable. It releases the heat table: a frozen
// core never promotes a block. After Freeze the engine and its Clones may
// run concurrently.
func (e *Engine) Freeze(starts []uint32) {
	if e == nil {
		return
	}
	c := e.c
	if c.frozen {
		return
	}
	c.grow(len(e.code))
	for _, s := range starts {
		if s < uint32(len(c.byAddr)) && c.byAddr[s] == nil && c.heat[s] != heatPoison {
			e.compileAt(s)
		}
	}
	c.resolveChains()
	c.heat = nil
	c.frozen = true
}

// Reached returns, in address order, every block start an unfrozen
// engine's runs have entered: the blocks it compiled and those it
// interpreted below the promotion threshold. Freeze over a fresh engine
// on the same code compiles them all, so a re-run of the same path never
// leaves the compiled tier. A nil or frozen engine reports none.
func (e *Engine) Reached() []uint32 {
	if e == nil || e.c.frozen {
		return nil
	}
	var starts []uint32
	for a, h := range e.c.heat {
		if e.c.byAddr[a] != nil || (h != 0 && h != heatPoison) {
			starts = append(starts, uint32(a))
		}
	}
	return starts
}

// Frozen reports whether the core is frozen (safe to Clone).
func (e *Engine) Frozen() bool { return e.c.frozen }

// Clone returns a view sharing this engine's frozen compiled blocks with
// fresh per-view stats. The receiver must be frozen.
func (e *Engine) Clone() *Engine {
	return &Engine{c: e.c, code: e.code, disabled: e.disabled}
}

// resolveChains fills every nil chain slot whose target is compiled.
func (c *core) resolveChains() {
	for _, b := range c.blocks {
		for i := range b.uops {
			u := &b.uops[i]
			k := u.k
			if k < uJmp || k > uDecJcc {
				continue
			}
			if u.taken == nil {
				if t := uint32(u.aux); t < uint32(len(c.byAddr)) {
					u.taken = c.byAddr[t]
				}
			}
			if u.fall == nil && k != uJmp && k != uCall {
				if t := u.ip + 1; t < uint32(len(c.byAddr)) {
					u.fall = c.byAddr[t]
				}
			}
		}
	}
}

// Run executes code from the machine's current IP until a stop, equivalent
// to Machine.Run in every observable: architectural state, counters,
// output, fault outcome and the returned Stop. Compiled blocks execute
// fused; everything the compiled tier cannot express exactly — branch
// hooks, the firing step of a planted fault, blocks straddling the step
// budget or the fault's firing boundary, cold blocks — runs on the
// reference interpreter. code is the caller's current slice, not e's
// alias: a disabled view stops following Sync, so its alias goes stale.
func (e *Engine) Run(m *cpu.Machine, code []isa.Instr, maxSteps uint64) cpu.Stop {
	if e == nil || e.disabled || m.BranchHook != nil {
		return m.Run(code, maxSteps)
	}
	c := e.c
	for {
		if m.Steps >= maxSteps {
			return cpu.Stop{Reason: cpu.StopOutOfSteps, IP: m.IP}
		}
		bound := maxSteps
		dbLimit := ^uint64(0)
		if f := m.Fault; f != nil && !f.Fired {
			if f.Kind == cpu.FaultRegBit {
				if m.Steps >= f.StepIndex {
					// At the firing boundary: one reference Step applies the
					// flip with the seed path's exact semantics.
					if stop, done := m.Step(code); done {
						return stop
					}
					continue
				}
				if f.StepIndex < bound {
					bound = f.StepIndex
				}
			} else {
				if m.DirectBranches >= f.BranchIndex {
					// The next direct branch fires the fault; walk to it on
					// the reference path.
					if stop, done := m.Step(code); done {
						return stop
					}
					continue
				}
				dbLimit = f.BranchIndex
			}
		}
		ip := m.IP
		var cb *cblock
		if ip < uint32(len(c.byAddr)) {
			cb = c.byAddr[ip]
		}
		if cb == nil && e.coldBlocks != nil {
			cb = e.coldBlocks[ip]
		}
		if cb != nil && m.Steps+uint64(cb.totalSteps) <= bound {
			if stop, done := e.runCompiled(m, cb, bound, dbLimit); done {
				return stop
			}
			continue
		}
		if stop, done := e.interpBlock(m, code, maxSteps); done {
			return stop
		}
		if !c.frozen {
			e.noteBlock(ip)
		} else if cb == nil {
			e.noteCold(ip)
		}
	}
}

// interpBlock executes one basic block (through its terminator) on the
// reference interpreter, stopping early on a trap or the step budget.
func (e *Engine) interpBlock(m *cpu.Machine, code []isa.Instr, maxSteps uint64) (cpu.Stop, bool) {
	for {
		if m.Steps >= maxSteps {
			return cpu.Stop{Reason: cpu.StopOutOfSteps, IP: m.IP}, true
		}
		wasTerm := m.IP < uint32(len(code)) && code[m.IP].Op.IsTerminator()
		if stop, done := m.Step(code); done {
			return stop, true
		}
		if wasTerm {
			return cpu.Stop{}, false
		}
	}
}

// noteBlock bumps the heat of an interpreted block start and promotes it to
// compiled form at the threshold.
func (e *Engine) noteBlock(ip uint32) {
	c := e.c
	if ip >= uint32(len(c.heat)) || c.byAddr[ip] != nil {
		return
	}
	h := c.heat[ip]
	if h == heatPoison {
		return
	}
	h++
	c.heat[ip] = h
	if h >= c.threshold {
		e.compileAt(ip)
	}
}

// noteCold is noteBlock for a frozen view: it heats an interpreted start
// the shared core did not compile and promotes it into the view's private
// cold tier at the threshold.
func (e *Engine) noteCold(ip uint32) {
	if ip >= uint32(len(e.code)) {
		return
	}
	if e.coldHeat == nil {
		e.coldHeat = map[uint32]uint32{}
	}
	h := e.coldHeat[ip]
	if h == heatPoison {
		return
	}
	h++
	if h < e.c.threshold {
		e.coldHeat[ip] = h
		return
	}
	cb := e.build(ip)
	if cb == nil {
		e.coldHeat[ip] = heatPoison
		return
	}
	cb.cold = true
	delete(e.coldHeat, ip)
	if e.coldBlocks == nil {
		e.coldBlocks = map[uint32]*cblock{}
	}
	e.coldBlocks[ip] = cb
	e.countCompiled(cb)
}
