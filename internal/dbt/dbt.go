package dbt

import (
	"fmt"

	"repro/internal/comp"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/obs"
)

// Options configures a DBT instance.
type Options struct {
	// Technique is the control-flow checking instrumentation; nil means
	// plain translation (the paper's baseline).
	Technique Technique
	// Policy selects check placement (ALLBB by default).
	Policy Policy
	// Backend selects the execution engine driving translated code:
	// BackendStep (per-step reference interpreter) or BackendCompile
	// (block-compiled with direct chaining). The zero value BackendAuto
	// resolves to the compiled backend. Both are byte-identical in
	// architectural state, counters and output — the choice only moves
	// wall-clock.
	Backend comp.Backend
	// NoChaining disables block chaining: every inter-block transfer
	// dispatches through the translator (ablation knob).
	NoChaining bool
	// TraceThreshold is the back-edge dispatch count that triggers hot
	// trace formation; 0 means the default (16), negative disables the
	// trace backend.
	TraceThreshold int
	// Costs overrides the cost model (default cpu.DefaultCosts).
	Costs *cpu.CostModel
	// Body, when non-nil, rewrites block bodies (data-flow checking).
	Body BodyTransform
	// Trace, when non-nil, receives structured translator events (block
	// translated, stub dispatched, chain patched, trace formed, cache
	// invalidated, check sites) plus the machine's fault/check events.
	// The nil fast path costs one branch per instrumented site.
	Trace *obs.Tracer
}

const defaultTraceThreshold = 16

// maxBlockScan caps how many guest instructions one translated block may
// cover (a safety net for malformed images).
const maxBlockScan = 1 << 14

// TBlock is one translated unit in the code cache: a basic block or a hot
// trace (superblock).
type TBlock struct {
	GuestStart uint32
	GuestEnd   uint32 // exclusive; for traces, the end of the first block
	CacheStart uint32
	CacheEnd   uint32 // exclusive
	Checked    bool   // whether the policy placed a signature check here
	IsTrace    bool
	// GuestBlocks lists the guest block start addresses merged into this
	// unit (length 1 for plain blocks).
	GuestBlocks []uint32
}

func (t *TBlock) String() string {
	kind := "block"
	if t.IsTrace {
		kind = "trace"
	}
	return fmt.Sprintf("%s guest=0x%x cache=[0x%x,0x%x)", kind, t.GuestStart, t.CacheStart, t.CacheEnd)
}

// Stats accumulates translator activity over a DBT's lifetime.
type Stats struct {
	BlocksTranslated      int
	GuestInstrsTranslated uint64
	TracesFormed          int
	Dispatches            uint64
	IndirectLookups       uint64
	Invalidations         int
	// CheckSites counts emitted signature-check sequences (technique
	// instrumentation sites, not executions).
	CheckSites int
}

// Add accumulates o into s (campaign reports sum per-sample deltas).
func (s *Stats) Add(o Stats) {
	s.BlocksTranslated += o.BlocksTranslated
	s.GuestInstrsTranslated += o.GuestInstrsTranslated
	s.TracesFormed += o.TracesFormed
	s.Dispatches += o.Dispatches
	s.IndirectLookups += o.IndirectLookups
	s.Invalidations += o.Invalidations
	s.CheckSites += o.CheckSites
}

// Sub returns s minus base: the activity that happened after base was
// captured (e.g. one sample's work on a snapshot clone).
func (s Stats) Sub(base Stats) Stats {
	return Stats{
		BlocksTranslated:      s.BlocksTranslated - base.BlocksTranslated,
		GuestInstrsTranslated: s.GuestInstrsTranslated - base.GuestInstrsTranslated,
		TracesFormed:          s.TracesFormed - base.TracesFormed,
		Dispatches:            s.Dispatches - base.Dispatches,
		IndirectLookups:       s.IndirectLookups - base.IndirectLookups,
		Invalidations:         s.Invalidations - base.Invalidations,
		CheckSites:            s.CheckSites - base.CheckSites,
	}
}

// Structural reports whether the stats record translator activity that
// mutates shared state — translations, trace formation, dispatch (stub
// counters, chain patches) or invalidations. Indirect-branch lookups are
// excluded: they are pure counter traffic that every execution performs
// identically, leaving the cache byte-for-byte intact. The checkpoint
// engine uses this to decide whether a clean run's boundaries are
// restorable into pristine snapshot clones.
func (s Stats) Structural() bool {
	s.IndirectLookups = 0
	return s != Stats{}
}

// Publish adds the stats as counters to reg (nil-safe), labeled with the
// technique name.
func (s Stats) Publish(reg *obs.Registry, technique string) {
	if reg == nil {
		return
	}
	l := fmt.Sprintf("{technique=%q}", technique)
	reg.Counter("dbt_blocks_translated_total" + l).Add(uint64(s.BlocksTranslated))
	reg.Counter("dbt_guest_instrs_translated_total" + l).Add(s.GuestInstrsTranslated)
	reg.Counter("dbt_traces_formed_total" + l).Add(uint64(s.TracesFormed))
	reg.Counter("dbt_dispatches_total" + l).Add(s.Dispatches)
	reg.Counter("dbt_indirect_lookups_total" + l).Add(s.IndirectLookups)
	reg.Counter("dbt_invalidations_total" + l).Add(uint64(s.Invalidations))
	reg.Counter("dbt_check_sites_total" + l).Add(uint64(s.CheckSites))
}

// Result describes one completed execution under the DBT.
type Result struct {
	Stop   cpu.Stop
	Cycles uint64
	Steps  uint64
	Output []int32
	Stats  Stats
	// DirectBranches counts executed direct branches (the fault-site space
	// for injection campaigns).
	DirectBranches uint64
	// CacheSize is the code cache size in instructions at the end of the
	// run.
	CacheSize int
	// SigChecks counts executed signature-check branches during the run.
	SigChecks uint64
	// Comp is the compiled-backend activity accumulated on this DBT (zero
	// when the step backend ran). Snapshot clones start from zero,
	// so a sample's Result.Comp is that sample's own work.
	Comp comp.Stats
}

// Detected reports whether the run ended with an error detection, either
// by a software signature check or by the hardware protection.
func (r *Result) Detected() bool {
	return r.Stop.Reason == cpu.StopReport || r.Stop.Reason.IsHardwareTrap()
}

// DBT is the dynamic binary translator. One instance serves one guest
// program; the code cache persists across Run calls (warm runs skip
// translation).
type DBT struct {
	prog *isa.Program
	opts Options
	tech Technique

	cache  []isa.Instr
	blocks map[uint32]*TBlock // guest start -> current preferred translation
	// snapBlocks is the read-only block map shared with the Snapshot this
	// DBT was primed from. Clones start with a nil owned map and resolve
	// lookups against the shared one; the first structural change (a new
	// translation, a trace, an invalidation) materializes a private copy.
	// The cache, tlist and stubs follow the same lazy discipline: clones
	// alias the snapshot's arrays through capacity-capped slices, so any
	// append copies, and the few in-place writes (dispatch counters, chain
	// patches) privatize the slice first (see own). Most fault-injection
	// samples never translate or dispatch, so a clone costs no O(cache)
	// copy on the campaign hot path.
	snapBlocks map[uint32]*TBlock
	tlist      []*TBlock // cache order; only ever appended to
	stubs      []stub

	// cacheShared and stubsShared report that cache and stubs still alias
	// the snapshot's arrays and must go through own before an in-place
	// write.
	cacheShared, stubsShared bool

	// comp is the block-compiled execution engine over the code cache
	// (nil when Options.Backend selects the step interpreter). The owning
	// DBT's engine compiles adaptively; snapshot clones share a frozen
	// core read-only (see Snapshot).
	comp *comp.Engine

	// pendingCycles accrues translation cost until the next time the
	// machine is available to charge it.
	pendingCycles uint64

	stats Stats
}

// normalizeOptions fills the zero-value defaults New documents: technique
// None, the default trace threshold and the default cost model. Restoring
// a snapshot from a portable image applies the same normalization so a
// restored translator behaves exactly like a locally-built one.
func normalizeOptions(opts Options) Options {
	if opts.Technique == nil {
		opts.Technique = None{}
	}
	if opts.TraceThreshold == 0 {
		opts.TraceThreshold = defaultTraceThreshold
	}
	if opts.Costs == nil {
		opts.Costs = cpu.DefaultCosts()
	}
	return opts
}

// New prepares a translator for program p.
func New(p *isa.Program, opts Options) *DBT {
	opts = normalizeOptions(opts)
	d := &DBT{
		prog:   p,
		opts:   opts,
		tech:   opts.Technique,
		blocks: make(map[uint32]*TBlock),
	}
	if opts.Backend.Compiled() {
		d.comp = comp.NewEngine(nil, opts.Costs, 0)
	}
	return d
}

// Prog returns the guest program.
func (d *DBT) Prog() *isa.Program { return d.prog }

// StatsSnapshot returns a copy of the translator statistics accumulated so
// far.
func (d *DBT) StatsSnapshot() Stats { return d.stats }

// CompStats returns a copy of the compiled-backend statistics accumulated
// on this DBT so far (zero for the step backend).
func (d *DBT) CompStats() comp.Stats {
	if d.comp == nil {
		return comp.Stats{}
	}
	return d.comp.Stats
}

// CacheLen returns the current code cache size in instructions.
func (d *DBT) CacheLen() int { return len(d.cache) }

// Run executes the guest program under the translator. fault, when
// non-nil, plants a single transient fault (see cpu.Fault). maxSteps bounds
// execution (a control-flow error can loop forever).
func (d *DBT) Run(fault *cpu.Fault, maxSteps uint64) *Result {
	m, res := d.Start(fault)
	if res != nil {
		return res
	}
	return d.Finish(m, d.Advance(m, maxSteps))
}

// Start prepares a machine for a run under the translator: reset, entry
// translation, the pending-translation cycle charge, and the technique
// prologue. It returns the machine positioned at the translated entry, or
// a non-nil Result when the program cannot even start (unmappable entry).
// Run is Start + Advance + Finish; the checkpoint recorder drives the
// pieces separately so it can interleave captures at step boundaries.
func (d *DBT) Start(fault *cpu.Fault) (*cpu.Machine, *Result) {
	m := cpu.New()
	m.Costs = d.opts.Costs
	m.Reset(d.prog)
	m.Fault = fault

	entry, err := d.ensure(d.prog.Entry)
	if err != nil {
		return nil, d.result(m, cpu.Stop{Reason: cpu.StopBadFetch, Detail: err.Error()})
	}
	m.Cycles += d.pendingCycles
	d.pendingCycles = 0
	// Translator-side prologue: signature registers are initialized by the
	// runtime, outside the guest-reachable code cache.
	for _, ri := range d.tech.Prologue(d.prog.Entry) {
		m.Regs[ri.Reg] = ri.Val
	}
	if d.opts.Body != nil {
		for _, ri := range d.opts.Body.Prologue() {
			m.Regs[ri.Reg] = ri.Val
		}
	}
	m.IP = entry.CacheStart
	return m, nil
}

// Resume primes a machine that was restored from a checkpoint to continue
// under this translator: the cost model is attached, the skipped prefix's
// translator work (stats accumulated by the reference run up to the
// checkpoint) is credited, and any pending translation charge is dropped —
// the restored machine's cycle counter already includes it, exactly as a
// full replay would have charged it at Start.
func (d *DBT) Resume(m *cpu.Machine, prefix Stats) {
	m.Costs = d.opts.Costs
	d.stats.Add(prefix)
	d.pendingCycles = 0
}

// Advance executes translated code on m until a terminal stop or until the
// absolute step budget maxSteps is exhausted, servicing dispatch and
// indirect-lookup traps along the way. A StopOutOfSteps return leaves the
// machine at a clean instruction boundary; calling Advance again with a
// larger budget continues the run exactly where it left off (the
// checkpoint recorder uses this to pause at capture points).
func (d *DBT) Advance(m *cpu.Machine, maxSteps uint64) cpu.Stop {
	for {
		d.comp.Sync(d.cache)
		stop := comp.Run(d.opts.Backend, d.comp, m, d.cache, maxSteps)
		if stop.Reason != cpu.StopTrapOut {
			return stop
		}
		in := d.cache[stop.IP]
		if in.Imm == indirectStub {
			// Indirect-branch lookup service: the guest target address is
			// in SCR; map it to (and if needed translate) its cache block.
			m.Cycles += uint64(d.opts.Costs.IndirectLookup)
			d.stats.IndirectLookups++
			target := uint32(m.Regs[isa.RegSCR])
			tb, err := d.ensure(target)
			if err != nil {
				// The "address" is not executable guest code: hardware
				// protection catches the stray transfer.
				return cpu.Stop{Reason: cpu.StopBadFetch, IP: stop.IP, Detail: err.Error()}
			}
			m.Cycles += d.pendingCycles
			d.pendingCycles = 0
			m.IP = tb.CacheStart
			continue
		}
		// Direct-edge dispatch through a chaining stub.
		d.stubs = own(d.stubs, &d.stubsShared)
		s := &d.stubs[in.Imm]
		m.Cycles += uint64(d.opts.Costs.DispatchCost)
		d.stats.Dispatches++
		s.count++
		if d.opts.Trace != nil {
			d.opts.Trace.Emit(obs.Event{
				Kind: obs.EvStubDispatch, Step: m.Steps,
				Guest: s.guest, Addr: s.slot, Value: int64(s.count),
			})
		}
		tb, err := d.ensure(s.guest)
		if err != nil {
			return cpu.Stop{Reason: cpu.StopBadFetch, IP: stop.IP, Detail: err.Error()}
		}
		// Back-edge stubs are the frontend's profiling points: they keep
		// dispatching (counting) until the hot threshold fires the trace
		// backend, and only then chain — to the freshly built trace.
		profiling := s.backEdge && d.opts.TraceThreshold > 0 && !tb.IsTrace
		if profiling && s.count >= d.opts.TraceThreshold {
			if tr := d.formTrace(s.guest); tr != nil {
				tb = tr
			}
			profiling = false
		}
		m.Cycles += d.pendingCycles
		d.pendingCycles = 0
		if !d.opts.NoChaining && !profiling {
			// Patch the stub slot into a direct jump; later executions of
			// this edge bypass the translator entirely. When the stub was
			// reached through a branch, re-point the branch itself so the
			// chained transfer costs nothing extra. The compiled backend
			// bakes opcodes AND immediates into its uop arrays, so it must
			// drop blocks at both patch sites.
			if s.referrer != noReferrer {
				d.cache = own(d.cache, &d.cacheShared)
				d.cache[s.referrer].Imm = isa.OffsetFor(s.referrer, tb.CacheStart)
				d.comp.Redecode(s.referrer)
			}
			d.cache = own(d.cache, &d.cacheShared)
			d.cache[s.slot] = isa.Instr{Op: isa.OpJmp, Imm: isa.OffsetFor(s.slot, tb.CacheStart)}
			d.comp.Redecode(s.slot)
			s.chained = true
			if d.opts.Trace != nil {
				d.opts.Trace.Emit(obs.Event{
					Kind: obs.EvChainPatch, Step: m.Steps,
					Guest: s.guest, Addr: s.slot,
				})
			}
		}
		m.IP = tb.CacheStart
	}
}

// Finish packages a completed execution into a Result and emits the
// post-run machine events (fault fired, check failed).
func (d *DBT) Finish(m *cpu.Machine, stop cpu.Stop) *Result {
	return d.result(m, stop)
}

func (d *DBT) result(m *cpu.Machine, stop cpu.Stop) *Result {
	cpu.TraceRunOutcome(d.opts.Trace, m, stop)
	st := d.stats
	r := &Result{
		Stop:           stop,
		Cycles:         m.Cycles,
		Steps:          m.Steps,
		Output:         append([]int32(nil), m.Output...),
		Stats:          st,
		DirectBranches: m.DirectBranches,
		CacheSize:      len(d.cache),
		SigChecks:      m.SigChecks,
	}
	if d.comp != nil {
		r.Comp = d.comp.Stats
	}
	return r
}

// lookupBlock resolves a guest address against the owned block map, falling
// back to the shared snapshot map when the clone has not yet been
// materialized (see snapBlocks).
func (d *DBT) lookupBlock(guest uint32) (*TBlock, bool) {
	if tb, ok := d.blocks[guest]; ok {
		return tb, true
	}
	tb, ok := d.snapBlocks[guest]
	return tb, ok
}

// own returns s ready for in-place writes: while *shared reports that s
// still aliases a Snapshot's array, a private copy (clearing the flag),
// and s itself afterwards.
func own[E any](s []E, shared *bool) []E {
	if *shared {
		*shared = false
		return append([]E(nil), s...)
	}
	return s
}

// setBlock records a (re)translation, materializing a private copy of the
// shared snapshot map on the first structural change.
func (d *DBT) setBlock(guest uint32, tb *TBlock) {
	if d.blocks == nil {
		d.blocks = make(map[uint32]*TBlock, len(d.snapBlocks)+1)
		for g, b := range d.snapBlocks {
			d.blocks[g] = b
		}
		d.snapBlocks = nil
	}
	d.blocks[guest] = tb
}

// ensure returns the translation of the guest block starting at guest,
// translating it now if needed.
func (d *DBT) ensure(guest uint32) (*TBlock, error) {
	if tb, ok := d.lookupBlock(guest); ok {
		return tb, nil
	}
	if !d.prog.Contains(guest) {
		return nil, fmt.Errorf("guest address 0x%x outside code", guest)
	}
	return d.translate(guest), nil
}

// scanBlock decodes the guest block starting at guest: the instruction
// range, the terminator description, and the address of the terminator.
func (d *DBT) scanBlock(guest uint32) (end uint32, term TermInfo) {
	p := d.prog
	addr := guest
	for n := 0; n < maxBlockScan; n++ {
		if addr >= p.Len() {
			// Fell off the code image; executing past the end traps, which
			// the runtime turns into a hardware detection.
			return addr, TermInfo{Kind: TermFall, Fall: addr}
		}
		in := p.Code[addr]
		if in.Op.IsTerminator() {
			switch in.Op {
			case isa.OpJmp:
				return addr + 1, TermInfo{Kind: TermJmp, Taken: in.Target(addr)}
			case isa.OpJcc:
				return addr + 1, TermInfo{Kind: TermCond, Cond: in.Cond(), Taken: in.Target(addr), Fall: addr + 1}
			case isa.OpJrz:
				// Guest jrz is a conditional branch on a register; translate
				// it as a register-zero conditional (rare in guest code).
				return addr + 1, TermInfo{Kind: TermCond, Cond: isa.CondEQ, Taken: in.Target(addr), Fall: addr + 1}
			case isa.OpCall:
				return addr + 1, TermInfo{Kind: TermCall, Taken: in.Target(addr), Fall: addr + 1}
			case isa.OpRet:
				return addr + 1, TermInfo{Kind: TermRet}
			case isa.OpJmpR:
				return addr + 1, TermInfo{Kind: TermJmpR, Reg: in.RS1}
			case isa.OpCallR:
				return addr + 1, TermInfo{Kind: TermCallR, Reg: in.RS1, Fall: addr + 1}
			case isa.OpHalt:
				return addr + 1, TermInfo{Kind: TermHalt}
			}
		}
		addr++
	}
	return addr, TermInfo{Kind: TermFall, Fall: addr}
}

// jrz guest blocks: the scan above translates OpJrz with CondEQ, but the
// condition must come from the tested register, not the flags. The body
// copy handles this by materializing a compare; see translateBody.

// checkedByPolicy decides whether the block gets a signature check.
func (d *DBT) checkedByPolicy(guestStart uint32, end uint32, term TermInfo) bool {
	switch d.opts.Policy {
	case PolicyAllBB:
		return true
	case PolicyRetBE:
		if term.Kind == TermRet {
			return true
		}
		if (term.Kind == TermJmp || term.Kind == TermCond) && term.Taken <= end-1 {
			return true
		}
		return false
	case PolicyRet:
		return term.Kind == TermRet
	default: // PolicyEnd
		return false
	}
}

// translate emits the guest block starting at guest into the code cache.
func (d *DBT) translate(guest uint32) *TBlock {
	end, term := d.scanBlock(guest)
	tb := &TBlock{
		GuestStart:  guest,
		GuestEnd:    end,
		CacheStart:  uint32(len(d.cache)),
		GuestBlocks: []uint32{guest},
	}
	// Register before emitting the tail so self-loops chain to themselves.
	d.setBlock(guest, tb)
	d.tlist = append(d.tlist, tb)

	e := &Emitter{d: d}
	d.emitOne(e, guest, end, term)
	tb.Checked = d.checkedByPolicy(guest, end, term)
	tb.CacheEnd = uint32(len(d.cache))
	d.stats.BlocksTranslated++
	d.stats.GuestInstrsTranslated += uint64(end - guest)
	if d.opts.Trace != nil {
		d.opts.Trace.Emit(obs.Event{
			Kind: obs.EvBlockTranslated, Guest: guest,
			Addr: tb.CacheStart, Len: tb.CacheEnd - tb.CacheStart, Checked: tb.Checked,
		})
	}
	// Translation cost accrues into a pending pool; the run loop charges it
	// to the machine at the dispatch that triggered translation.
	d.pendingCycles += uint64(d.opts.Costs.TranslateUnit) * uint64(tb.CacheEnd-tb.CacheStart)
	return tb
}

// emitOne emits head instrumentation, the block body, and the instrumented
// tail for one guest block.
func (d *DBT) emitOne(e *Emitter, guest, end uint32, term TermInfo) {
	check := d.checkedByPolicy(guest, end, term)
	d.tech.EmitHead(e, guest, check)

	bodyEnd := end
	if term.Kind != TermFall {
		bodyEnd = end - 1 // terminator is re-emitted by the technique
	}
	for a := guest; a < bodyEnd; a++ {
		in := d.prog.Code[a]
		if in.Op == isa.OpHalt {
			// Unreachable: halt is a terminator.
			continue
		}
		if d.opts.Body != nil {
			d.opts.Body.TransformBody(e, in)
			continue
		}
		e.Emit(in)
	}
	if term.Kind == TermCond && d.prog.Contains(end-1) && d.prog.Code[end-1].Op == isa.OpJrz {
		// Rewrite guest jrz into a flags-based conditional the techniques
		// can instrument: test the register and branch on EQ.
		r := d.prog.Code[end-1].RS1
		e.Emit(isa.Instr{Op: isa.OpCmpI, RD: r, Imm: 0})
	}
	if term.Kind == TermHalt {
		d.tech.EmitFinalCheck(e, guest)
	}
	preStubs := len(d.stubs)
	d.tech.EmitTail(e, guest, term)
	// Mark loop-closing stubs for the hot-trace trigger.
	for i := preStubs; i < len(d.stubs); i++ {
		if d.stubs[i].guest <= guest {
			d.stubs[i].backEdge = true
		}
	}
}

// Locate maps a cache address to its translated block, if any. The fault
// injector uses this to classify wild branch targets into the paper's
// categories.
func (d *DBT) Locate(cacheAddr uint32) (*TBlock, bool) {
	// tlist is in cache order; binary search the containing range.
	lo, hi := 0, len(d.tlist)
	for lo < hi {
		mid := (lo + hi) / 2
		tb := d.tlist[mid]
		switch {
		case cacheAddr < tb.CacheStart:
			hi = mid
		case cacheAddr >= tb.CacheEnd:
			lo = mid + 1
		default:
			return tb, true
		}
	}
	return nil, false
}

// Invalidate flushes the entire code cache. The paper's translator removes
// translations whose guest code was overwritten (detected by write
// protection); this implementation models the recovery with a full flush,
// after which execution naturally retranslates on demand.
func (d *DBT) Invalidate() {
	d.opts.Trace.Emit(obs.Event{Kind: obs.EvCacheInvalidate, Value: int64(len(d.cache))})
	d.cache = nil
	d.blocks = make(map[uint32]*TBlock)
	d.snapBlocks = nil
	d.tlist = nil
	d.stubs = nil
	d.comp.Sync(nil)
	d.stats.Invalidations++
}

// SelfModify overwrites one guest instruction, modeling self-modifying
// code: the write triggers the (simulated) write-protection fault and the
// translator drops stale translations.
func (d *DBT) SelfModify(addr uint32, in isa.Instr) error {
	if !d.prog.Contains(addr) {
		return fmt.Errorf("self-modify outside code: 0x%x", addr)
	}
	d.prog.Code[addr] = in
	d.Invalidate()
	return nil
}

// CacheInstr returns the translated instruction at a cache address, for
// diagnostics.
func (d *DBT) CacheInstr(addr uint32) isa.Instr {
	if addr < uint32(len(d.cache)) {
		return d.cache[addr]
	}
	return isa.Instr{}
}
