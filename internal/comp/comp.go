// Package comp implements the block-compiled execution backend: each basic
// block (and each straight-line hot trace across unconditional jumps) is
// compiled once into a fused superinstruction array whose body keeps the
// instruction pointer, step and cycle counters and the condition flags in
// locals, materializing flags only at reads and at tier boundaries. A
// signature check's "jump if zero over a report" (Guard) does not end a
// block: it compiles, together with the lea chain computing the checked
// register, into one in-block guard uop that leaves the block only when
// the check fails, so a passing check costs one uop on the hot path.
// Blocks dispatch block-to-block through direct chain slots — pointers
// patched into the terminator the first time a transition resolves,
// mirroring the DBT's patched-cache chaining — with a by-address table as
// the unchained fallback.
//
// The by-address table is a two-level page table: address a lives in
// slot a&255 of page a>>8, and a page of 256 block pointers (2 KiB) is
// allocated when the first block starting in it is compiled. A frozen
// core that compiled only the few dozen blocks a clean run reached
// therefore keeps a few pages, not 8 bytes per code word, which lets a
// long-lived session hold one. Every core uses the same table, frozen or
// not. The promotion heat stays dense (4 bytes per code word) and is
// released at Freeze.
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
	"math"

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
	byAddr    blockTable // block start addr -> compiled block
	heat      []uint32   // execution counts for not-yet-compiled starts; nil once frozen
	blocks    []*cblock
}

func (c *core) grow(n int) {
	if uint32(n) <= c.byAddr.n {
		return
	}
	c.byAddr.grow(uint32(n))
	heat := make([]uint32, n)
	copy(heat, c.heat)
	c.heat = heat
}

func (c *core) reset() {
	c.byAddr.reset()
	clear(c.heat)
	c.blocks = c.blocks[:0]
}

// pageBits sizes a blockTable page: 1<<pageBits addresses.
const pageBits = 8

// page is one blockTable page.
type page [1 << pageBits]*cblock

// blockTable maps the addresses [0, n) to the compiled block starting
// there (nil for none), one lazily allocated page per 256 addresses.
type blockTable struct {
	n     uint32
	pages []*page
}

// get returns the block starting at a, or nil (also for a >= n).
func (t *blockTable) get(a uint32) *cblock {
	if a >= t.n {
		return nil
	}
	if p := t.pages[a>>pageBits]; p != nil {
		return p[a&(1<<pageBits-1)]
	}
	return nil
}

// set maps a (< n) to b, allocating a's page unless b is nil.
func (t *blockTable) set(a uint32, b *cblock) {
	p := t.pages[a>>pageBits]
	if p == nil {
		if b == nil {
			return
		}
		p = new(page)
		t.pages[a>>pageBits] = p
	}
	p[a&(1<<pageBits-1)] = b
}

// grow extends the mapped range to [0, n), keeping every entry.
func (t *blockTable) grow(n uint32) {
	if n <= t.n {
		return
	}
	if np := int((n + 1<<pageBits - 1) >> pageBits); np > len(t.pages) {
		pages := make([]*page, np)
		copy(pages, t.pages)
		t.pages = pages
	}
	t.n = n
}

// reset drops every entry and page, keeping the mapped range.
func (t *blockTable) reset() { clear(t.pages) }

// invalidate drops every compiled block covering addr and unlinks chain
// slots that point at the dropped blocks. Caller guarantees !frozen.
func (c *core) invalidate(addr uint32) {
	kept := c.blocks[:0]
	dropped := false
	for _, b := range c.blocks {
		if b.covers(addr) {
			b.dead = true
			c.byAddr.set(b.start, nil)
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

	// The view's optional watch (see Watch and WatchIP): Run stops before
	// entering a block at watchIP, or continuing past a guard to it, while
	// the registers equal *watchRegs (any registers when watchAny), or at
	// the first block entry past watchUntil. A nil watchRegs disarms it.
	watchIP    uint32
	watchRegs  *[isa.NumRegs]int32
	watchUntil uint64
	watchAny   bool
}

// anyRegs is the non-nil watchRegs an IP-only watch arms with; its
// contents are never compared.
var anyRegs [isa.NumRegs]int32

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
		if uint32(len(code)) < e.c.byAddr.n {
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
		if s < c.byAddr.n && c.byAddr.get(s) == nil && c.heat[s] != heatPoison {
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
		if e.c.byAddr.get(uint32(a)) != nil || (h != 0 && h != heatPoison) {
			starts = append(starts, uint32(a))
		}
	}
	return starts
}

// BlockStart reports whether Run's watch can fire at ip: a compiled block
// starts there, where Run checks its watch on every transition, or ip is a
// guard's continuation, where both tiers check it after a passing guard. A
// nil engine (the step backend) reports every address, since it has no
// watch to place points for.
func (e *Engine) BlockStart(ip uint32) bool {
	return e == nil || e.c.byAddr.get(ip) != nil || AfterGuard(e.code, ip)
}

// Watch arms the view's watch: Run returns cpu.StopWatch, with the machine
// state flushed, before it enters a block starting at ip, or continues
// past a guard to ip, while m.Regs equal *regs. It checks at its loop
// head, on every chain transition and after every passing guard, so an
// armed watch sees each block entry and guard continuation and an unarmed
// one costs one compare per transition or guard. until is a soft step
// deadline: Run also returns StopWatch at the first block entry (or, on
// the interpreted tier, guard continuation) where the step count has
// reached until or the next block would carry it past, so an expiring
// watch never leaves the machine mid-block. regs must stay unchanged
// while armed; nil disarms. The shared core is untouched: every view has
// its own watch.
func (e *Engine) Watch(ip uint32, regs *[isa.NumRegs]int32, until uint64) {
	if e != nil {
		e.watchIP, e.watchRegs, e.watchUntil, e.watchAny = ip, regs, until, false
	}
}

// WatchIP arms the view's watch in IP-only mode: Run returns
// cpu.StopWatch before it enters a block starting at ip, or continues past
// a guard to ip, whatever the registers hold, including at the address
// Run starts on. It has no step deadline. Watch(0, nil, 0) disarms it.
func (e *Engine) WatchIP(ip uint32) {
	if e != nil {
		e.watchIP, e.watchRegs, e.watchUntil, e.watchAny = ip, &anyRegs, math.MaxUint64, true
	}
}

// watched reports whether an armed watch fires at ip with registers r.
func (e *Engine) watched(ip uint32, r *[isa.NumRegs]int32) bool {
	return ip == e.watchIP && (e.watchAny || *r == *e.watchRegs)
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
				u.taken = c.byAddr.get(uint32(u.aux))
			}
			if u.fall == nil && k != uJmp && k != uCall {
				u.fall = c.byAddr.get(u.ip + 1)
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
// reference interpreter. An armed watch (Watch) adds one stop, StopWatch,
// which a disabled view or a branch hook never reaches. code is the
// caller's current slice, not e's alias: a disabled view stops following
// Sync, so its alias goes stale.
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
		if e.watchRegs != nil {
			if m.Steps >= e.watchUntil || e.watched(m.IP, &m.Regs) {
				return cpu.Stop{Reason: cpu.StopWatch, IP: m.IP}
			}
			bound = min(bound, e.watchUntil)
		}
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
		cb := c.byAddr.get(ip)
		if cb == nil && e.coldBlocks != nil {
			cb = e.coldBlocks[ip]
		}
		if cb != nil && m.Steps+uint64(cb.totalSteps) <= bound {
			if stop, done := e.runCompiled(m, cb, bound, dbLimit); done {
				return stop
			}
			continue
		}
		if cb != nil && e.watchRegs != nil && m.Steps+uint64(cb.totalSteps) > e.watchUntil {
			// The block crosses only the watch deadline: expire here, at
			// its entry.
			return cpu.Stop{Reason: cpu.StopWatch, IP: m.IP}
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
// reference interpreter, stopping early on a trap or the step budget. A
// passing guard does not end the block; at its continuation an armed
// watch is checked as at a block entry.
func (e *Engine) interpBlock(m *cpu.Machine, code []isa.Instr, maxSteps uint64) (cpu.Stop, bool) {
	for {
		if m.Steps >= maxSteps {
			return cpu.Stop{Reason: cpu.StopOutOfSteps, IP: m.IP}, true
		}
		ip := m.IP
		wasTerm := ip < uint32(len(code)) && code[ip].Op.IsTerminator()
		if stop, done := m.Step(code); done {
			return stop, true
		}
		if !wasTerm {
			continue
		}
		if m.IP != ip+2 || !Guard(code, ip) {
			return cpu.Stop{}, false
		}
		if e.watchRegs != nil && (m.Steps >= e.watchUntil || e.watched(m.IP, &m.Regs)) {
			return cpu.Stop{Reason: cpu.StopWatch, IP: m.IP}, true
		}
	}
}

// noteBlock bumps the heat of an interpreted block start and promotes it to
// compiled form at the threshold.
func (e *Engine) noteBlock(ip uint32) {
	c := e.c
	if ip >= uint32(len(c.heat)) || c.byAddr.get(ip) != nil {
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
