package boom

import (
	"fmt"
	"math"
	"math/bits"

	"icicle/internal/asm"
	"icicle/internal/branch"
	"icicle/internal/isa"
	"icicle/internal/mem"
	"icicle/internal/obs"
	"icicle/internal/pmu"
	"icicle/internal/stats"
)

// CycleHook observes every simulated cycle (used by the trace bridge).
type CycleHook func(cycle uint64, sample pmu.Sample)

type queueKind uint8

const (
	qInt queueKind = iota
	qMem
	qLong
	numQueues
)

// uop is one micro-op in flight: a ROB entry, stored in the core's slab
// arena and addressed by index (see arena.go).
type uop struct {
	seq    uint64
	gen    uint32      // slot generation, bumped on release
	rec    isa.Retired // zero for poison uops
	inst   isa.Inst
	pc     uint64
	poison bool // wrong-path: will be flushed, never retires

	queue      queueKind
	src1, src2 uref // producers captured at rename (nilRef = ready)

	issued   bool
	issuedAt uint64
	done     bool
	doneAt   uint64

	isMispredBr bool // resolving this branch flushes the pipeline
	isLoad      bool
	isStore     bool
	isFence     bool
	isFenceI    bool
	isHalt      bool
	memAddr     uint64
}

// fbEntry is one fetch-buffer slot (pre-decode).
type fbEntry struct {
	rec         isa.Retired
	inst        isa.Inst
	pc          uint64
	poison      bool
	mispredBr   bool
	availableAt uint64
}

// Core is the BOOM timing model.
type Core struct {
	Cfg   Config
	CPU   *isa.CPU
	Hier  *mem.Hierarchy
	Pred  branch.Predictor
	RAS   *branch.RAS // nil unless Cfg.UseRAS
	PMU   *pmu.PMU
	Space *pmu.Space

	memory *mem.Sparse

	sample pmu.Sample
	// tally accumulates per-event totals and per-lane totals (the dense
	// form of Result.Tally/LaneTally), bulk-advanced by the skip path.
	tally *stats.Tally
	hook  CycleHook
	ids   eventIDs

	cycle uint64
	seq   uint64

	// Event-driven skip state (see skip.go): noSkip disables the path,
	// skipLimit is the exclusive cycle cap the active run loop installs
	// (0 = skipping off), skipped/skipEvents count bulk-advanced cycles
	// and jumps since Reset.
	noSkip     bool
	skipLimit  uint64
	skipped    uint64
	skipEvents uint64
	// quiet records that the previous cycle's stages mutated nothing
	// observable. quiesceTarget's queue scans are only worth running
	// right after such a cycle — busy cycles (the common case on
	// compute-bound code) then pay a few compares, not O(ROB) scans.
	// Purely a performance gate: a stale false only delays a skip by one
	// cycle, never changes results.
	quiet bool

	// frontend; fb is a ring: live entries are fb[fbHead:], compacted on
	// push so the backing array never creeps past FBEntries.
	putback        []isa.Retired
	fb             []fbEntry
	fbHead         int
	wrongPath      bool
	wrongPC        uint64
	recovering     int  // minimum redirect cycles remaining
	recoveringFlag bool // set at flush, cleared when a fetch packet is valid
	fetchStall     uint64
	refillUntil    uint64
	lastFetchBlock uint64
	haveFetchBlock bool

	// backend: all uops live in the arena; these hold indices.
	uops       arena
	rob        []int32 // ring buffer
	robHead    int
	robCount   int
	iq         [numQueues][]int32
	renameLast [32]int32 // last uop writing each register, nilIdx if none
	inflight   []int32
	longBusy   uint64 // unpipelined divider busy until

	retiredTotal uint64
	// retireLimit caps retiredTotal exactly: commit stops mid-cycle at
	// the limit (set by RunWindow; MaxUint64 when unbounded).
	retireLimit uint64
	done        bool

	// Host-side throughput telemetry (nil = disabled). Survives Reset so
	// a pooled core keeps publishing; baselines re-zero with the cycle
	// counter.
	tel       *obs.CoreTelemetry
	telCycles uint64
	telInsts  uint64
	telSkipC  uint64
	telSkipE  uint64

	// per-cycle scratch
	issuedThisCycle int
}

// New builds a core executing prog. Its PMU counts with AddWires
// counters; code that reads another counter architecture sets PMU.Arch
// before it programs the counters.
func New(cfg Config, prog *asm.Program) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	memory := mem.NewSparse()
	prog.LoadInto(memory)
	space := NewSpace(cfg.DecodeWidth, cfg.IssueWidth)
	p := pmu.New(space, pmu.AddWires)
	cpu := isa.NewCPU(memory, prog.Entry)
	cpu.CSR = p
	c := &Core{
		Cfg:      cfg,
		CPU:      cpu,
		Hier:     mem.NewHierarchy(cfg.Hierarchy),
		Pred:     branch.NewBoomPredictor(),
		PMU:      p,
		Space:    space,
		memory:   memory,
		sample:   space.NewSample(),
		tally:    stats.NewTally(space.SourceCounts()),
		noSkip:   !DefaultStallSkip,
		ids:      resolveEventIDs(space),
		uops:     newArena(cfg.ROBEntries),
		rob:      make([]int32, cfg.ROBEntries),
		fb:       make([]fbEntry, 0, cfg.FBEntries),
		inflight: make([]int32, 0, cfg.ROBEntries),
		putback:  make([]isa.Retired, 0, cfg.ROBEntries+cfg.FBEntries),
	}
	c.iq[qInt] = make([]int32, 0, cfg.IQInt)
	c.iq[qMem] = make([]int32, 0, cfg.IQMem)
	c.iq[qLong] = make([]int32, 0, cfg.IQLong)
	for i := range c.renameLast {
		c.renameLast[i] = nilIdx
	}
	if cfg.UseRAS {
		c.RAS = branch.NewRAS(cfg.RASEntries)
	}
	return c, nil
}

// MustNew is New that panics on config errors.
func MustNew(cfg Config, prog *asm.Program) *Core {
	c, err := New(cfg, prog)
	if err != nil {
		panic(err)
	}
	return c
}

// Reset returns the core to power-on state with prog loaded, reusing
// every internal buffer: the uop arena, ROB ring, issue queues, cache and
// predictor arrays, and the sparse-memory frames (zeroed in place, then
// the program image is copied back in). A Reset core behaves
// byte-identically to a freshly built one — sim's core pool depends on
// that — and a warmed core resets without allocating.
func (c *Core) Reset(prog *asm.Program) {
	c.memory.Reset()
	prog.LoadInto(c.memory)
	c.CPU.Reset(prog.Entry)
	c.Hier.Reset()
	branch.Reset(c.Pred)
	if c.RAS != nil {
		c.RAS.Reset()
	}
	c.PMU.Reset()
	c.sample.Reset()
	c.tally.Reset()
	c.hook = nil
	c.cycle = 0
	c.seq = 0
	// noSkip survives Reset like the telemetry handle: an engine choice,
	// not per-program state.
	c.skipLimit = 0
	c.skipped = 0
	c.skipEvents = 0
	c.quiet = false

	c.putback = c.putback[:0]
	c.fb = c.fb[:0]
	c.fbHead = 0
	c.wrongPath = false
	c.wrongPC = 0
	c.recovering = 0
	c.recoveringFlag = false
	c.fetchStall = 0
	c.refillUntil = 0
	c.lastFetchBlock = 0
	c.haveFetchBlock = false

	c.uops.reset()
	c.robHead = 0
	c.robCount = 0
	for q := range c.iq {
		c.iq[q] = c.iq[q][:0]
	}
	for i := range c.renameLast {
		c.renameLast[i] = nilIdx
	}
	c.inflight = c.inflight[:0]
	c.longBusy = 0

	c.retiredTotal = 0
	c.done = false
	c.issuedThisCycle = 0
	c.telCycles = 0
	c.telInsts = 0
	c.telSkipC = 0
	c.telSkipE = 0
}

// SetCycleHook installs a per-cycle observer.
func (c *Core) SetCycleHook(h CycleHook) { c.hook = h }

// SetTelemetry installs the host-side throughput handle (nil disables).
// Unlike the cycle hook it survives Reset, so the sim core pool installs
// it once per acquisition.
func (c *Core) SetTelemetry(t *obs.CoreTelemetry) { c.tel = t }

// flushTelemetry publishes the (cycles, insts) delta since the last flush.
func (c *Core) flushTelemetry() {
	if c.tel == nil {
		return
	}
	c.tel.Add(c.cycle-c.telCycles, c.retiredTotal-c.telInsts)
	c.tel.AddSkip(c.skipped-c.telSkipC, c.skipEvents-c.telSkipE)
	c.telCycles, c.telInsts = c.cycle, c.retiredTotal
	c.telSkipC, c.telSkipE = c.skipped, c.skipEvents
}

// Cycles returns the cycles simulated so far (the final count after Run).
func (c *Core) Cycles() uint64 { return c.cycle }

// Insts returns the instructions retired so far.
func (c *Core) Insts() uint64 { return c.retiredTotal }

// assert/assertLane raise an event by its interned sample index (see
// eventIDs); the per-cycle loop asserts dozens of events, so no map
// lookups here.
func (c *Core) assert(ev int)           { c.sample.Assert(ev, 0) }
func (c *Core) assertLane(ev, lane int) { c.sample.Assert(ev, lane) }

// --- instruction stream ---

func (c *Core) next() (isa.Retired, bool, error) {
	if n := len(c.putback); n > 0 {
		r := c.putback[n-1]
		c.putback = c.putback[:n-1]
		return r, true, nil
	}
	if c.CPU.Halted {
		return isa.Retired{}, false, nil
	}
	r, err := c.CPU.Step()
	if err != nil {
		return isa.Retired{}, false, err
	}
	return r, true, nil
}

func (c *Core) streamEmpty() bool { return len(c.putback) == 0 && c.CPU.Halted }

// --- fetch buffer ring ---

func (c *Core) fbLen() int { return len(c.fb) - c.fbHead }

// fbPush appends an entry, compacting the consumed head first when the
// backing array (capacity FBEntries) is full — so pushes never grow it.
func (c *Core) fbPush(e fbEntry) {
	if len(c.fb) == cap(c.fb) && c.fbHead > 0 {
		n := copy(c.fb, c.fb[c.fbHead:])
		c.fb = c.fb[:n]
		c.fbHead = 0
	}
	c.fb = append(c.fb, e)
}

func (c *Core) fbPop() {
	c.fbHead++
	if c.fbHead == len(c.fb) {
		c.fb = c.fb[:0]
		c.fbHead = 0
	}
}

// --- ROB ring ---

func (c *Core) robFull() bool { return c.robCount == len(c.rob) }

func (c *Core) robPush(ui int32) {
	c.rob[(c.robHead+c.robCount)%len(c.rob)] = ui
	c.robCount++
}

func (c *Core) robAt(i int) *uop { return c.uops.at(c.rob[(c.robHead+i)%len(c.rob)]) }

func (c *Core) robPop() int32 {
	ui := c.rob[c.robHead]
	c.robHead = (c.robHead + 1) % len(c.rob)
	c.robCount--
	return ui
}

// Result is the outcome of a simulation.
type Result struct {
	Cycles uint64
	Insts  uint64
	Tally  map[string]uint64
	// LaneTally records per-lane totals for the multi-source TMA events
	// (Table V).
	LaneTally map[string][]uint64
	L1I       mem.CacheStats
	L1D       mem.CacheStats
	L2        mem.CacheStats
	Exit      uint64
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Insts) / float64(r.Cycles)
}

// Run simulates until the workload halts and the pipeline drains.
func (c *Core) Run() (Result, error) {
	if err := c.RunCycles(); err != nil {
		return Result{}, err
	}
	return c.Result(), nil
}

// RunCycles simulates until the workload halts and the pipeline drains,
// without materializing the map-shaped Result: on a warmed (Reset) core
// the whole loop performs no heap allocation. Call Result afterwards.
func (c *Core) RunCycles() error { return c.RunWindow(math.MaxUint64, 0) }

// RunWindow is the core's one run loop. It steps the cycle loop until
// the workload halts and the pipeline drains, maxCycles more cycles have
// run, or maxInsts more instructions have retired (0 = unbounded), and
// fails if the config's MaxCycles budget runs out first. The budget
// bounds the cumulative cycle count, so it also guards a sampled run's
// windows against a runaway. An instruction bound is exact: commit stops
// at it even mid-group, so a plan window never retires (and never
// stores) past its memory-delta boundary.
func (c *Core) RunWindow(maxCycles, maxInsts uint64) error {
	budget := c.Cfg.MaxCycles
	if budget == 0 {
		budget = defaultMaxCycles
	}
	end := satAdd(c.cycle, maxCycles)
	c.retireLimit = math.MaxUint64
	if maxInsts != 0 {
		c.retireLimit = satAdd(c.retiredTotal, maxInsts)
	}
	// Cap skips at the window end and the cycle budget so the loop
	// re-evaluates both conditions exactly where per-cycle stepping
	// would. The instruction bound needs no cap: a skipped stretch
	// retires nothing.
	c.skipLimit = min(end, budget)
	var err error
	for !c.done && c.cycle < end && c.retiredTotal < c.retireLimit {
		if c.cycle >= budget {
			err = fmt.Errorf("boom: cycle budget %d exhausted (pc 0x%x)", budget, c.CPU.PC)
			break
		}
		if err = c.step(); err != nil {
			break
		}
	}
	c.flushTelemetry()
	return err
}

// satAdd returns a+b, saturating at MaxUint64.
func satAdd(a, b uint64) uint64 {
	if s, carry := bits.Add64(a, b, 0); carry == 0 {
		return s
	}
	return math.MaxUint64
}

// Result converts the dense tallies into the map-shaped result. The maps
// and lane slices are freshly allocated — they stay valid after the core
// is Reset and reused.
func (c *Core) Result() Result {
	res := Result{
		Cycles:    c.cycle,
		Insts:     c.retiredTotal,
		Tally:     make(map[string]uint64, c.tally.Len()),
		LaneTally: make(map[string][]uint64),
		L1I:       c.Hier.L1I.Stats(),
		L1D:       c.Hier.L1D.Stats(),
		L2:        c.Hier.L2.Stats(),
		Exit:      c.CPU.ExitCode,
	}
	for i, e := range c.Space.Events {
		res.Tally[e.Name] = c.tally.Totals[i]
		if src := c.tally.Lanes[i]; src != nil {
			lt := make([]uint64, len(src))
			copy(lt, src)
			res.LaneTally[e.Name] = lt
		}
	}
	return res
}

func (c *Core) step() error {
	// Event-driven skip (skip.go): when the core is provably quiescent,
	// run the stages once — they mutate nothing and produce the stretch's
	// constant event sample — then bulk-account that sample for the extra
	// skipped cycles. The hook gate keeps trace/temporal-sampling runs
	// per-cycle; skipLimit caps jumps at the active run loop's bound.
	var bulk uint64
	if c.quiet && !c.noSkip && c.hook == nil && c.skipLimit != 0 {
		if target, ok := c.quiesceTarget(); ok {
			if target > c.skipLimit {
				target = c.skipLimit
			}
			if target > c.cycle+1 {
				bulk = target - c.cycle - 1
			}
		}
	}

	c.sample.Reset()
	c.assert(c.ids.cycles)
	c.issuedThisCycle = 0

	seqBefore := c.seq
	inflightBefore := len(c.inflight)
	putbackBefore := len(c.putback)
	fbBefore := c.fbLen()

	c.completeStage()
	retired := c.commitStage()
	c.issueStage()
	c.dispatchStage()
	if err := c.fetchStage(); err != nil {
		return err
	}

	// A cycle is quiet when no stage moved anything: nothing retired,
	// issued, renamed (seq), completed or executed (inflight), flushed
	// (putback), or fetched (fb). Quiet cycles are where quiesceTarget
	// can prove a skip, so the next step only attempts it after one.
	c.quiet = retired == 0 && c.issuedThisCycle == 0 && c.seq == seqBefore &&
		len(c.inflight) == inflightBefore && len(c.putback) == putbackBefore &&
		c.fbLen() == fbBefore

	// I$-blocked heuristic (§IV-A): refill in flight and fetch buffer empty.
	if c.refillUntil > c.cycle && c.fbLen() == 0 {
		c.assert(c.ids.icacheBlocked)
	}
	// D$-blocked heuristic (§IV-A): issue starved, queues non-empty, and at
	// least one MSHR handling a miss — one event per missing commit slot.
	if c.issuedThisCycle < c.Cfg.DecodeWidth && c.anyIQNonEmpty() &&
		c.Hier.MSHRs.AnyBusy(c.cycle) {
		for l := c.issuedThisCycle; l < c.Cfg.DecodeWidth; l++ {
			c.assertLane(c.ids.dcacheBlocked, l)
		}
	}

	c.tally.AddSample(c.sample, 1+bulk)
	if bulk == 0 {
		c.PMU.Tick(c.sample, retired)
	} else {
		c.PMU.TickN(c.sample, retired, 1+bulk) // retired is provably 0 here
		c.skipped += bulk
		c.skipEvents++
	}
	if c.hook != nil {
		c.hook(c.cycle, c.sample)
	}
	prev := c.cycle
	c.cycle += 1 + bulk
	if c.tel != nil && (prev^c.cycle)&^uint64(obs.TelemetryFlushInterval-1) != 0 {
		c.flushTelemetry()
	}

	if c.streamEmpty() && c.fbLen() == 0 && c.robCount == 0 &&
		!c.wrongPath && c.recovering == 0 && len(c.inflight) == 0 {
		c.done = true
	}
	return nil
}

func (c *Core) anyIQNonEmpty() bool {
	for q := range c.iq {
		if len(c.iq[q]) > 0 {
			return true
		}
	}
	return false
}

// --- complete: writeback, branch resolution, memory-ordering checks ---

func (c *Core) completeStage() {
	// Process completions oldest-first so the earliest flush this cycle
	// wins.
	var flushAt *uop  // mispredicted branch resolving now
	var violator *uop // oldest load hit by a store-ordering violation
	keep := c.inflight[:0]
	for _, ui := range c.inflight {
		u := c.uops.at(ui)
		if u.doneAt > c.cycle {
			keep = append(keep, ui)
			continue
		}
		u.done = true
		if u.inst.Op.IsBranch() && !u.poison {
			c.assert(c.ids.branchResolved)
		}
		if u.isMispredBr && (flushAt == nil || u.seq < flushAt.seq) {
			flushAt = u
		}
		if u.isStore && !u.poison {
			if v := c.findOrderingViolation(u); v != nil &&
				(violator == nil || v.seq < violator.seq) {
				violator = v
			}
		}
	}
	c.inflight = keep

	// A branch mispredict flush beats a (younger) ordering violation.
	switch {
	case flushAt != nil && (violator == nil || flushAt.seq < violator.seq):
		c.assert(c.ids.brMispredict)
		c.assert(c.ids.flush)
		c.flushAfter(flushAt.seq)
	case violator != nil:
		// Machine clear: the load and everything younger replays.
		c.assert(c.ids.flush)
		c.flushAfter(violator.seq - 1)
	}
}

// forwardableStore reports whether an older completed store to the same
// dword is still in the window (store→load forwarding). Dword-granular
// like the violation check; partial overlaps fall back to the cache.
func (c *Core) forwardableStore(ld *uop) bool {
	for i := c.robCount - 1; i >= 0; i-- {
		u := c.robAt(i)
		if u.isStore && !u.poison && u.seq < ld.seq &&
			u.done && u.doneAt <= c.cycle && u.memAddr>>3 == ld.memAddr>>3 {
			return true
		}
	}
	return false
}

// findOrderingViolation returns the oldest already-issued younger load
// that overlaps the store's dword (naive memory-disambiguation
// speculation: loads issue past unresolved stores and are squashed when
// proven wrong).
func (c *Core) findOrderingViolation(st *uop) *uop {
	var oldest *uop
	for i := 0; i < c.robCount; i++ {
		u := c.robAt(i)
		if u.isLoad && !u.poison && u.seq > st.seq && u.issued &&
			u.issuedAt < st.doneAt && u.memAddr>>3 == st.memAddr>>3 {
			if oldest == nil || u.seq < oldest.seq {
				oldest = u
			}
		}
	}
	return oldest
}

// flushAfter squashes every µop with seq > bound: ROB tail, issue queues,
// in-flight ops, and the fetch buffer. Real (non-poison) records are
// returned to the stream for refetch; the frontend then recovers.
//
// Arena discipline: uop slots are released only here (the ROB-tail walk)
// and at commit — every live uop sits in the ROB exactly once, so those
// are the only release points and no slot is freed twice. The issue-queue
// and inflight filters run before the ROB walk so they never read a
// released slot.
func (c *Core) flushAfter(bound uint64) {
	// Fetch buffer first (youngest instructions): push youngest-first so
	// the oldest pops first.
	for i := len(c.fb) - 1; i >= c.fbHead; i-- {
		if !c.fb[i].poison {
			c.putback = append(c.putback, c.fb[i].rec)
		}
	}
	c.fb = c.fb[:0]
	c.fbHead = 0

	// Issue queues and inflight (before the ROB walk releases slots).
	for q := range c.iq {
		kept := c.iq[q][:0]
		for _, ui := range c.iq[q] {
			if c.uops.at(ui).seq <= bound {
				kept = append(kept, ui)
			}
		}
		c.iq[q] = kept
	}
	kept := c.inflight[:0]
	for _, ui := range c.inflight {
		if c.uops.at(ui).seq <= bound {
			kept = append(kept, ui)
		}
	}
	c.inflight = kept

	// ROB tail: squash, putback, and release.
	for c.robCount > 0 {
		u := c.robAt(c.robCount - 1)
		if u.seq <= bound {
			break
		}
		if !u.poison {
			c.putback = append(c.putback, u.rec)
		}
		c.robCount--
		c.uops.release(c.rob[(c.robHead+c.robCount)%len(c.rob)])
	}

	// Rebuild the rename table from the surviving ROB entries.
	for i := range c.renameLast {
		c.renameLast[i] = nilIdx
	}
	for i := 0; i < c.robCount; i++ {
		ui := c.rob[(c.robHead+i)%len(c.rob)]
		if rd := c.uops.at(ui).inst.DestReg(); rd != isa.X0 {
			c.renameLast[rd] = ui
		}
	}

	c.wrongPath = false
	c.fetchStall = 0
	c.haveFetchBlock = false // the redirected fetch re-accesses the I$
	c.recovering = c.Cfg.RedirectLatency
	c.recoveringFlag = true
}

// --- commit ---

func (c *Core) commitStage() int {
	retired := 0
	for retired < c.Cfg.DecodeWidth && c.robCount > 0 {
		if c.retiredTotal >= c.retireLimit {
			// Bounded window: stop commit exactly at the limit even
			// mid-cycle, so a window never retires (and never stores)
			// past its memory-delta boundary.
			break
		}
		ui := c.rob[c.robHead]
		u := c.uops.at(ui)
		if u.poison || !u.done || u.doneAt > c.cycle {
			break
		}
		c.robPop()
		c.assertLane(c.ids.uopsRetired, retired)
		c.assertLane(c.ids.instRet, retired)
		if c.renameLast[u.inst.DestReg()] == ui {
			c.renameLast[u.inst.DestReg()] = nilIdx // value now architectural
		}
		switch {
		case u.isFenceI:
			c.assert(c.ids.fenceRetired)
			c.assert(c.ids.flush)
			c.Hier.L1I.Flush()
			c.flushAfter(u.seq)
		case u.isFence:
			c.assert(c.ids.fenceRetired)
		case u.isHalt:
			c.assert(c.ids.exception)
		}
		retired++
		c.retiredTotal++
		c.uops.release(ui)
	}
	return retired
}

// --- issue/execute ---

func (c *Core) issueStage() {
	lane := 0
	lane = c.issueQueue(qInt, c.Cfg.IntPorts, lane)
	lane = c.issueQueue(qMem, c.Cfg.MemPorts, lane)
	c.issueQueue(qLong, c.Cfg.LongPorts, lane)
}

func (c *Core) issueQueue(q queueKind, ports, laneBase int) int {
	used := 0
	kept := c.iq[q][:0]
	for _, ui := range c.iq[q] {
		if used >= ports || !c.ready(c.uops.at(ui)) || (q == qLong && c.longBusy > c.cycle) {
			kept = append(kept, ui)
			continue
		}
		c.executeUop(ui)
		c.assertLane(c.ids.uopsIssued, laneBase+used)
		used++
		c.issuedThisCycle++
	}
	c.iq[q] = kept
	return laneBase + ports
}

// srcPending reports whether a producer captured in r has not yet written
// back. A generation mismatch means the producer retired (or was
// squashed) since rename — its value is architectural, so the operand is
// ready, matching the old committed-*uop pointer semantics.
func (c *Core) srcPending(r uref) bool {
	if r.idx < 0 {
		return false
	}
	u := c.uops.at(r.idx)
	if u.gen != r.gen {
		return false
	}
	return !u.done || u.doneAt > c.cycle
}

func (c *Core) ready(u *uop) bool {
	if c.srcPending(u.src1) || c.srcPending(u.src2) {
		return false
	}
	// With store forwarding enabled the LSU also disambiguates: a load
	// waits for older same-dword stores instead of speculating past them
	// (and then takes the bypass). Without it, loads speculate and
	// ordering violations machine-clear (the default, §IV-A).
	if c.Cfg.StoreForwarding && u.isLoad && !u.poison {
		for i := 0; i < c.robCount; i++ {
			st := c.robAt(i)
			if st.seq >= u.seq {
				break
			}
			if st.isStore && !st.poison && st.memAddr>>3 == u.memAddr>>3 &&
				(!st.done || st.doneAt > c.cycle) {
				return false
			}
		}
	}
	return true
}

func (c *Core) executeUop(ui int32) {
	u := c.uops.at(ui)
	u.issued = true
	u.issuedAt = c.cycle
	if u.poison {
		u.doneAt = c.cycle + 1
		c.inflight = append(c.inflight, ui)
		return
	}
	switch u.inst.Op.Class() {
	case isa.ClassLoad:
		if c.Cfg.StoreForwarding && c.forwardableStore(u) {
			u.doneAt = c.cycle + 1 // bypass from the store queue
			break
		}
		d := c.Hier.AccessD(u.memAddr, false, c.cycle)
		c.noteDAccess(d)
		u.doneAt = c.cycle + uint64(c.Cfg.LoadLatency) + uint64(d.Latency)
	case isa.ClassStore:
		d := c.Hier.AccessD(u.memAddr, true, c.cycle)
		c.noteDAccess(d)
		u.doneAt = c.cycle + 1
	case isa.ClassAtomic:
		d := c.Hier.AccessD(u.memAddr, true, c.cycle)
		c.noteDAccess(d)
		u.doneAt = c.cycle + uint64(c.Cfg.LoadLatency) + uint64(d.Latency) + 1
	case isa.ClassMul:
		u.doneAt = c.cycle + uint64(c.Cfg.MulLatency)
	case isa.ClassDiv:
		u.doneAt = c.cycle + uint64(c.Cfg.DivLatency)
		c.longBusy = u.doneAt // unpipelined
	case isa.ClassCSR:
		u.doneAt = c.cycle + 2
	default:
		u.doneAt = c.cycle + 1
	}
	c.inflight = append(c.inflight, ui)
}

func (c *Core) noteDAccess(d mem.DResult) {
	if d.TLBMiss {
		c.assert(c.ids.dtlbMiss)
	}
	if d.L2TLBMiss {
		c.assert(c.ids.l2tlbMiss)
	}
	if d.Miss {
		c.assert(c.ids.dcacheMiss)
		if d.Writeback {
			c.assert(c.ids.dcacheRel)
		}
	}
}

// --- dispatch (decode/rename) ---

func (c *Core) dispatchStage() {
	dispatched := 0
	backpressured := false
	for dispatched < c.Cfg.DecodeWidth && c.fbLen() > 0 {
		e := c.fb[c.fbHead]
		if e.availableAt > c.cycle {
			break
		}
		if !c.tryDispatch(e) {
			backpressured = true
			break
		}
		c.fbPop()
		dispatched++
	}
	// Fetch-bubble events (§III, §IV-A): decode lane ready but no valid
	// µop, suppressed while recovering and when the stall is decode's own
	// backpressure.
	if !backpressured && !c.recoveringFlag {
		for l := dispatched; l < c.Cfg.DecodeWidth; l++ {
			if c.streamEmpty() && c.fbLen() == 0 && !c.wrongPath {
				break // drain: the program is over, not a stall
			}
			c.assertLane(c.ids.fetchBubbles, l)
		}
	}
}

// tryDispatch renames and inserts one µop; false means backpressure.
func (c *Core) tryDispatch(e fbEntry) bool {
	if c.robFull() {
		return false
	}
	cls := e.inst.Op.Class()
	var q queueKind
	switch cls {
	case isa.ClassLoad, isa.ClassStore, isa.ClassAtomic:
		q = qMem
	case isa.ClassMul, isa.ClassDiv:
		q = qLong
	default:
		q = qInt
	}
	cap := [numQueues]int{c.Cfg.IQInt, c.Cfg.IQMem, c.Cfg.IQLong}[q]
	if len(c.iq[q]) >= cap {
		return false
	}
	if cls == isa.ClassLoad && c.countMem(true) >= c.Cfg.LQEntries {
		return false
	}
	if cls == isa.ClassStore && c.countMem(false) >= c.Cfg.STQEntries {
		return false
	}
	isFence := cls == isa.ClassFence
	if isFence && (c.robCount > 0 || len(c.inflight) > 0) {
		return false // fences dispatch only into an empty window
	}

	c.seq++
	ui := c.uops.alloc()
	u := c.uops.at(ui)
	u.seq = c.seq
	u.rec = e.rec
	u.inst = e.inst
	u.pc = e.pc
	u.poison = e.poison
	u.queue = q
	u.isMispredBr = e.mispredBr
	u.isLoad = cls == isa.ClassLoad || cls == isa.ClassAtomic
	u.isStore = cls == isa.ClassStore || cls == isa.ClassAtomic
	u.isFence = isFence
	u.isFenceI = e.inst.Op == isa.FENCEI
	u.isHalt = e.rec.Halt
	u.memAddr = e.rec.MemAddr
	if !u.poison {
		rs1, rs2 := e.inst.SrcRegs()
		if rs1 != isa.X0 {
			u.src1 = c.refTo(c.renameLast[rs1])
		}
		if rs2 != isa.X0 {
			u.src2 = c.refTo(c.renameLast[rs2])
		}
	}
	if rd := e.inst.DestReg(); rd != isa.X0 {
		c.renameLast[rd] = ui
	}
	c.robPush(ui)
	c.iq[q] = append(c.iq[q], ui)
	return true
}

// refTo captures a producer link against idx's current generation.
func (c *Core) refTo(idx int32) uref {
	if idx < 0 {
		return nilRef
	}
	return uref{idx: idx, gen: c.uops.at(idx).gen}
}

func (c *Core) countMem(loads bool) int {
	n := 0
	for i := 0; i < c.robCount; i++ {
		u := c.robAt(i)
		if (loads && u.isLoad) || (!loads && u.isStore) {
			n++
		}
	}
	return n
}

// --- fetch ---

func (c *Core) fetchStage() error {
	// Recovering (§IV-A): asserts from the flush event until a fetch
	// packet is valid — through the redirect latency and, if the new PC
	// misses the I-cache, through the refill as well (those lost slots
	// are attributed to Bad Speculation, as the paper specifies).
	if c.recovering > 0 {
		c.assert(c.ids.recovering)
		c.recovering--
		return nil
	}
	if c.refillUntil > c.cycle || c.fetchStall > c.cycle {
		if c.recoveringFlag {
			c.assert(c.ids.recovering)
		}
		return nil
	}
	if c.wrongPath {
		c.fetchWrongPath()
		return nil
	}
	before := c.fbLen()
	if err := c.fetchRealPath(); err != nil {
		return err
	}
	if c.fbLen() > before {
		c.recoveringFlag = false // a fetch packet is valid again
	} else if c.recoveringFlag && !c.streamEmpty() {
		c.assert(c.ids.recovering)
	}
	return nil
}

// fetchWrongPath streams poison µops decoded from memory at the
// mispredicted PC until the branch resolves and flushes them.
func (c *Core) fetchWrongPath() {
	for n := 0; n < c.Cfg.FetchWidth && c.fbLen() < c.Cfg.FBEntries; n++ {
		word := uint32(c.CPU.Mem.Load(c.wrongPC, isa.InstBytes))
		in := isa.Decode(word)
		if in.Op == isa.ILLEGAL {
			in = isa.NOP // wrong-path garbage still occupies a slot
		}
		c.fbPush(fbEntry{
			inst:        in,
			pc:          c.wrongPC,
			poison:      true,
			availableAt: c.cycle + 1,
		})
		c.wrongPC += isa.InstBytes
	}
}

func (c *Core) fetchRealPath() error {
	// The fetch packet covers one aligned FetchWidth-instruction window:
	// a packet starting mid-window (e.g. a branch target) delivers only
	// the window's tail, which is where most per-lane fetch bubbles come
	// from on real hardware.
	window := c.Cfg.FetchWidth
	for n := 0; n < window && c.fbLen() < c.Cfg.FBEntries; n++ {
		rec, ok, err := c.next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if n == 0 {
			off := int(rec.PC/isa.InstBytes) & (c.Cfg.FetchWidth - 1)
			window = c.Cfg.FetchWidth - off
			if window < 1 {
				window = 1
			}
		}
		blk := c.Hier.L1I.BlockAddr(rec.PC)
		if n == 0 && (!c.haveFetchBlock || blk != c.lastFetchBlock) {
			ir := c.Hier.AccessI(rec.PC, c.cycle)
			c.lastFetchBlock, c.haveFetchBlock = blk, true
			if ir.TLBMiss {
				c.assert(c.ids.itlbMiss)
			}
			if ir.L2TLBMiss {
				c.assert(c.ids.l2tlbMiss)
			}
			if ir.Miss {
				c.assert(c.ids.icacheMiss)
				c.refillUntil = c.cycle + uint64(ir.Latency)
				c.putback = append(c.putback, rec)
				return nil
			}
		}
		e := fbEntry{rec: rec, inst: rec.Inst, pc: rec.PC, availableAt: c.cycle + 1}
		redirecting := rec.NextPC != rec.PC+isa.InstBytes

		switch rec.Inst.Op.Class() {
		case isa.ClassBranch:
			pred := c.Pred.PredictBranch(rec.PC)
			c.Pred.UpdateBranch(rec.PC, rec.Taken)
			if pred != rec.Taken {
				e.mispredBr = true
				c.fbPush(e)
				c.enterWrongPath(rec, pred)
				return nil
			}
			c.fbPush(e)
			if rec.Taken {
				c.redirect(rec, c.Cfg.BTBMissPenalty)
				return nil
			}
		case isa.ClassJump:
			c.fbPush(e)
			// RAS maintenance: calls push the return address, returns pop
			// a prediction that beats the BTB.
			if c.RAS != nil && rec.Inst.Rd == isa.RA {
				c.RAS.Push(rec.PC + isa.InstBytes)
			}
			if redirecting {
				if c.RAS != nil && rec.Inst.Op == isa.JALR &&
					rec.Inst.Rs1 == isa.RA && rec.Inst.Rd == isa.X0 {
					if target, ok := c.RAS.Pop(); ok && target == rec.NextPC {
						if c.Cfg.TakenBubble > 0 {
							c.fetchStall = c.cycle + uint64(c.Cfg.TakenBubble)
						}
						return nil // predicted return: no resteer
					}
				}
				pen := 1 // jal: target decoded in the frontend
				if rec.Inst.Op == isa.JALR {
					pen = c.Cfg.JALRPenalty
				}
				c.redirect(rec, pen)
				return nil
			}
		default:
			c.fbPush(e)
			if redirecting {
				return nil
			}
		}
	}
	return nil
}

// enterWrongPath switches fetch to the (incorrect) predicted path.
func (c *Core) enterWrongPath(rec isa.Retired, predTaken bool) {
	c.wrongPath = true
	if predTaken {
		if t, ok := c.Pred.PredictTarget(rec.PC); ok {
			c.wrongPC = t
		} else {
			c.wrongPC = rec.PC + 2*isa.InstBytes
		}
	} else {
		c.wrongPC = rec.PC + isa.InstBytes
	}
	c.Pred.UpdateTarget(rec.PC, rec.NextPC)
}

func (c *Core) redirect(rec isa.Retired, missPenalty int) {
	target, ok := c.Pred.PredictTarget(rec.PC)
	if ok && target == rec.NextPC {
		// Correctly predicted redirect: the fetch stream still breaks for
		// TakenBubble cycles while the PC wraps around the frontend.
		if c.Cfg.TakenBubble > 0 {
			c.fetchStall = c.cycle + uint64(c.Cfg.TakenBubble)
		}
		return
	}
	c.assert(c.ids.cfTargetMiss)
	c.fetchStall = c.cycle + uint64(missPenalty)
	c.Pred.UpdateTarget(rec.PC, rec.NextPC)
}
