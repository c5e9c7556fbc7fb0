package rocket

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
// The sample must not be retained across calls.
type CycleHook func(cycle uint64, sample pmu.Sample)

// producer kinds drive interlock-event attribution.
type producerKind uint8

const (
	prodNone producerKind = iota
	prodLoad
	prodLongLatency // load that missed
	prodMulDiv
	prodCSR
)

// fetchEntry is one instruction buffer slot.
type fetchEntry struct {
	rec          isa.Retired
	availableAt  uint64
	mispredicted bool // direction mispredict, resolves at execute
}

// Core is the Rocket timing model. Create with New, drive with Run.
type Core struct {
	Cfg  Config
	CPU  *isa.CPU
	Hier *mem.Hierarchy
	Pred branch.Predictor
	PMU  *pmu.PMU

	memory *mem.Sparse

	sample pmu.Sample
	tally  *stats.Tally // exact per-event totals (source assertions)
	hook   CycleHook

	// Event-driven skip state (see skip.go): noSkip disables the
	// quiescent-stretch fast path (engine choice, never part of the memo
	// key — results are bit-identical either way); skipLimit is the
	// exclusive cycle bound the active run loop imposes so a bulk jump
	// never overshoots a window end or the cycle budget (0 = skipping
	// off, the safe default for any future caller that forgets to set
	// it); skipped/skipEvents count bulk-advanced cycles and jumps.
	noSkip     bool
	skipLimit  uint64
	skipped    uint64
	skipEvents uint64
	// quiet records that the previous cycle's stages mutated nothing
	// observable (nothing issued, fetched, or squashed). quiesceTarget
	// can only prove a skip right after such a cycle, so busy cycles pay
	// three compares instead of the full predicate. Purely a performance
	// gate: a stale false only delays a skip by one cycle, never changes
	// results.
	quiet bool

	// Host-side throughput telemetry (nil = disabled, zero cost beyond
	// one pointer test per flush check). The handle survives Reset so a
	// pooled core keeps publishing; the baselines are re-zeroed with the
	// cycle counter.
	tel       *obs.CoreTelemetry
	telCycles uint64
	telInsts  uint64
	telSkipC  uint64
	telSkipE  uint64

	cycle uint64

	// frontend; ibuf is a ring: live entries are ibuf[ibufHead:],
	// compacted on push so the backing array never creeps past
	// IBufEntries.
	ibuf           []fetchEntry
	ibufHead       int
	putback        []isa.Retired // squashed records, re-fetched in order
	fetchBlocked   bool          // wrong-path fetch after an undetected mispredict
	fetchStall     uint64        // redirect bubbles (BTB/target misses)
	refillUntil    uint64        // I$ refill completes at this cycle
	lastFetchBlock uint64
	haveFetchBlock bool

	// backend
	recovering     int  // minimum redirect cycles remaining
	recoveringFlag bool // set at mispredict, cleared when fetch delivers
	stallUntil     uint64
	stallEvents    []int // events asserted during the stall
	replayAt       uint64
	regReady       [32]uint64
	regProd        [32]producerKind

	retiredTotal uint64
	done         bool
}

// New builds a core executing prog. Its PMU counts with AddWires
// counters; code that reads another counter architecture sets PMU.Arch
// before it programs the counters.
func New(cfg Config, prog *asm.Program) *Core {
	memory := mem.NewSparse()
	prog.LoadInto(memory)
	hier := mem.NewHierarchy(cfg.Hierarchy)
	p := pmu.New(Events, pmu.AddWires)
	cpu := isa.NewCPU(memory, prog.Entry)
	cpu.CSR = p
	return &Core{
		Cfg:         cfg,
		CPU:         cpu,
		Hier:        hier,
		Pred:        branch.NewRocketPredictor(),
		PMU:         p,
		memory:      memory,
		sample:      Events.NewSample(),
		tally:       stats.NewTally(Events.SourceCounts()),
		noSkip:      !DefaultStallSkip,
		ibuf:        make([]fetchEntry, 0, cfg.IBufEntries),
		putback:     make([]isa.Retired, 0, cfg.IBufEntries),
		stallEvents: make([]int, 0, 1),
	}
}

// Reset returns the core to power-on state with prog loaded, reusing
// every internal buffer (the instruction buffer, cache and predictor
// arrays, the sparse-memory frames — zeroed in place, then the program
// image is copied back in). A Reset core behaves byte-identically to a
// freshly built one — sim's core pool depends on that — and a warmed
// core resets without allocating.
func (c *Core) Reset(prog *asm.Program) {
	c.memory.Reset()
	prog.LoadInto(c.memory)
	c.CPU.Reset(prog.Entry)
	c.Hier.Reset()
	branch.Reset(c.Pred)
	c.PMU.Reset()
	c.sample.Reset()
	c.tally.Reset()
	c.hook = nil
	c.cycle = 0
	c.telCycles = 0
	c.telInsts = 0
	c.telSkipC = 0
	c.telSkipE = 0
	// noSkip survives Reset like the telemetry handle: an engine choice,
	// not program state (results are bit-identical either way).
	c.skipLimit = 0
	c.skipped = 0
	c.skipEvents = 0
	c.quiet = false

	c.ibuf = c.ibuf[:0]
	c.ibufHead = 0
	c.putback = c.putback[:0]
	c.fetchBlocked = false
	c.fetchStall = 0
	c.refillUntil = 0
	c.lastFetchBlock = 0
	c.haveFetchBlock = false

	c.recovering = 0
	c.recoveringFlag = false
	c.stallUntil = 0
	c.stallEvents = c.stallEvents[:0]
	c.replayAt = 0
	c.regReady = [32]uint64{}
	c.regProd = [32]producerKind{}

	c.retiredTotal = 0
	c.done = false
}

// SetCycleHook installs a per-cycle observer (the trace bridge).
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

// assert raises an event by its interned sample index (see events.go); the
// per-cycle loop asserts dozens of events, so no map lookups here.
func (c *Core) assert(ev int) { c.sample.Assert(ev, 0) }

// stream: pull the next dynamic instruction, preferring squashed records.
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

// --- instruction buffer ring ---

func (c *Core) ibufLen() int { return len(c.ibuf) - c.ibufHead }

// ibufPush appends an entry, compacting the consumed head first when the
// backing array (capacity IBufEntries) is full — so pushes never grow it.
func (c *Core) ibufPush(e fetchEntry) {
	if len(c.ibuf) == cap(c.ibuf) && c.ibufHead > 0 {
		n := copy(c.ibuf, c.ibuf[c.ibufHead:])
		c.ibuf = c.ibuf[:n]
		c.ibufHead = 0
	}
	c.ibuf = append(c.ibuf, e)
}

func (c *Core) ibufPop() {
	c.ibufHead++
	if c.ibufHead == len(c.ibuf) {
		c.ibuf = c.ibuf[:0]
		c.ibufHead = 0
	}
}

// squash returns the not-yet-issued instruction buffer to the stream.
func (c *Core) squash() {
	for i := len(c.ibuf) - 1; i >= c.ibufHead; i-- {
		c.putback = append(c.putback, c.ibuf[i].rec)
	}
	c.ibuf = c.ibuf[:0]
	c.ibufHead = 0
}

// Result is the outcome of a simulation.
type Result struct {
	Cycles uint64
	Insts  uint64
	Tally  map[string]uint64 // exact event totals
	L1I    mem.CacheStats
	L1D    mem.CacheStats
	L2     mem.CacheStats
	Exit   uint64
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
// windows against a runaway. An instruction bound is exact: Rocket
// retires at most one instruction per step, and a skipped stretch
// retires none, so a plan window never retires past its memory-delta
// boundary.
func (c *Core) RunWindow(maxCycles, maxInsts uint64) error {
	budget := c.Cfg.MaxCycles
	if budget == 0 {
		budget = defaultMaxCycles
	}
	end := satAdd(c.cycle, maxCycles)
	instEnd := uint64(math.MaxUint64)
	if maxInsts != 0 {
		instEnd = satAdd(c.retiredTotal, maxInsts)
	}
	// Cap skips at the window end and the cycle budget so the loop
	// re-evaluates both conditions exactly where per-cycle stepping would.
	c.skipLimit = min(end, budget)
	var err error
	for !c.done && c.cycle < end && c.retiredTotal < instEnd {
		if c.cycle >= budget {
			err = fmt.Errorf("rocket: cycle budget %d exhausted (pc 0x%x)", budget, c.CPU.PC)
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

// Result converts the dense tallies into the map-shaped result. The map
// is freshly allocated — it stays valid after the core is Reset and
// reused.
func (c *Core) Result() Result {
	res := Result{
		Cycles: c.cycle,
		Insts:  c.retiredTotal,
		Tally:  make(map[string]uint64, c.tally.Len()),
		L1I:    c.Hier.L1I.Stats(),
		L1D:    c.Hier.L1D.Stats(),
		L2:     c.Hier.L2.Stats(),
		Exit:   c.CPU.ExitCode,
	}
	for i, e := range Events.Events {
		res.Tally[e.Name] = c.tally.Totals[i]
	}
	return res
}

// step advances one cycle — or, when the core is provably quiescent, a
// whole stretch of identical cycles at once: the stage functions run once
// (they cannot mutate state on a quiescent cycle), and the resulting
// sample is bulk-applied for the skipped cycles, bit-identical to
// stepping each one (see skip.go for the proof obligations).
func (c *Core) step() error {
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
	c.assert(idCycles)
	ibufBefore := c.ibufLen()
	putbackBefore := len(c.putback)
	retired := c.issueStage()
	if err := c.fetchStage(); err != nil {
		return err
	}
	// A cycle is quiet when neither stage moved anything: nothing issued
	// (covers every execute/squash mutation) and nothing entered or left
	// the instruction stream. Recovering/stall countdowns slip through as
	// "quiet", but quiesceTarget rejects those in its first compares.
	c.quiet = retired == 0 && c.ibufLen() == ibufBefore &&
		len(c.putback) == putbackBefore

	// I$-blocked heuristic (§IV-A): refill in progress and no valid
	// instructions buffered.
	if c.refillUntil > c.cycle && c.ibufLen() == 0 {
		c.assert(idICacheBlocked)
	}

	// Exact tallies and PMU, for this cycle plus any bulk-skipped ones.
	c.tally.AddSample(c.sample, 1+bulk)
	if bulk == 0 {
		c.PMU.Tick(c.sample, retired)
	} else {
		// retired is provably 0 on a quiescent cycle, so the repeated
		// sample is the whole story for the PMU too.
		c.PMU.TickN(c.sample, retired, 1+bulk)
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

	if c.streamEmpty() && c.ibufLen() == 0 && c.stallUntil <= c.cycle &&
		c.recovering == 0 {
		c.done = true
	}
	return nil
}

// issueStage models decode/issue/execute/retire (single issue). It returns
// the number of instructions retired this cycle.
func (c *Core) issueStage() int {
	// Multi-cycle stall in progress (blocking D$ miss, fence, CSR).
	if c.stallUntil > c.cycle {
		for _, ev := range c.stallEvents {
			c.sample.Assert(ev, 0)
		}
		if c.replayAt == c.cycle {
			c.assert(idInstIssued)
			c.assert(idReplay)
		}
		return 0
	}

	// Frontend recovery after a resolved mispredict.
	if c.recovering > 0 {
		c.assert(idRecovering)
		c.recovering--
		return 0
	}

	// Instruction buffer empty (or entry still in flight): a fetch
	// bubble — unless the frontend is still recovering from a flush
	// (e.g. the redirect target missed the I-cache), in which case the
	// lost cycle belongs to Bad Speculation (§IV-A).
	if c.ibufLen() == 0 || c.ibuf[c.ibufHead].availableAt > c.cycle {
		if c.recoveringFlag {
			c.assert(idRecovering)
		} else if !c.streamEmpty() || c.ibufLen() > 0 {
			c.assert(idFetchBubbles)
		}
		return 0
	}

	c.recoveringFlag = false // a packet is valid again
	e := c.ibuf[c.ibufHead]
	in := e.rec.Inst

	// Operand interlocks.
	rs1, rs2 := in.SrcRegs()
	blockReg, ready := rs1, c.regReady[rs1]
	if c.regReady[rs2] > ready {
		blockReg, ready = rs2, c.regReady[rs2]
	}
	if ready > c.cycle {
		switch c.regProd[blockReg] {
		case prodLoad:
			c.assert(idLoadUseInterlock)
		case prodLongLatency:
			c.assert(idLongLatency)
		case prodMulDiv:
			c.assert(idMulDivInterlock)
		case prodCSR:
			c.assert(idCSRInterlock)
		}
		return 0
	}

	// Issue.
	c.ibufPop()
	c.assert(idInstIssued)
	c.execute(e)

	// Retire (in-order, same cycle for accounting purposes).
	c.assert(idInstRet)
	c.retiredTotal++
	return 1
}

// execute applies per-class timing.
func (c *Core) execute(e fetchEntry) {
	in := e.rec.Inst
	rd := in.DestReg()
	switch in.Op.Class() {
	case isa.ClassALU:
		c.assert(idArith)
		c.setDest(rd, c.cycle+1, prodNone)

	case isa.ClassLoad:
		c.assert(idLoad)
		d := c.Hier.AccessD(e.rec.MemAddr, false, c.cycle)
		c.noteDTLB(d)
		if d.Miss {
			c.assert(idDCacheMiss)
			if d.Writeback {
				c.assert(idDCacheRel)
			}
			// Blocking miss: the pipeline stalls and the load replays.
			c.beginStall(uint64(d.Latency)+1, idDCacheBlocked)
			c.replayAt = c.stallUntil - 1
			c.setDest(rd, c.stallUntil, prodLongLatency)
		} else {
			c.setDest(rd, c.cycle+1+uint64(c.Cfg.LoadUseDelay), prodLoad)
		}

	case isa.ClassStore:
		c.assert(idStore)
		d := c.Hier.AccessD(e.rec.MemAddr, true, c.cycle)
		c.noteDTLB(d)
		if d.Miss {
			c.assert(idDCacheMiss)
			if d.Writeback {
				c.assert(idDCacheRel)
			}
			// Write-buffered: no pipeline stall.
		}

	case isa.ClassAtomic:
		// Read-modify-write holds the D$ port: a hit costs an extra
		// cycle, a miss blocks like a load.
		c.assert(idAtomic)
		d := c.Hier.AccessD(e.rec.MemAddr, true, c.cycle)
		c.noteDTLB(d)
		if d.Miss {
			c.assert(idDCacheMiss)
			if d.Writeback {
				c.assert(idDCacheRel)
			}
			c.beginStall(uint64(d.Latency)+2, idDCacheBlocked)
			c.replayAt = c.stallUntil - 1
			c.setDest(rd, c.stallUntil, prodLongLatency)
		} else {
			c.beginStall(1, noEvent)
			c.setDest(rd, c.cycle+2+uint64(c.Cfg.LoadUseDelay), prodLoad)
		}

	case isa.ClassMul:
		c.assert(idArith)
		c.setDest(rd, c.cycle+uint64(c.Cfg.MulLatency), prodMulDiv)

	case isa.ClassDiv:
		c.assert(idArith)
		c.setDest(rd, c.cycle+uint64(c.Cfg.DivLatency), prodMulDiv)

	case isa.ClassBranch:
		c.assert(idBranch)
		c.Pred.UpdateBranch(e.rec.PC, e.rec.Taken)
		if e.mispredicted {
			c.assert(idBrMispredict)
			c.assert(idFlush)
			c.recovering = c.Cfg.BrMispredictPenalty
			c.recoveringFlag = true
			c.fetchBlocked = false
			c.squash()
		}

	case isa.ClassJump:
		c.assert(idJump)
		c.setDest(rd, c.cycle+1, prodNone)

	case isa.ClassFence:
		c.assert(idFence)
		c.assert(idFlush)
		if in.Op == isa.FENCEI {
			c.Hier.L1I.Flush()
			c.haveFetchBlock = false
			c.beginStall(uint64(c.Cfg.FenceIPenalty), noEvent)
		} else {
			c.beginStall(uint64(c.Cfg.FencePenalty), noEvent)
		}

	case isa.ClassCSR:
		c.assert(idSystem)
		c.beginStall(uint64(c.Cfg.CSRLatency), noEvent)
		c.setDest(rd, c.stallUntil, prodCSR)

	case isa.ClassSystem:
		c.assert(idSystem)
		// ecall/ebreak: the functional model has already halted (or
		// continued); no extra timing beyond a flush-like cost.
		c.beginStall(uint64(c.Cfg.CSRLatency), noEvent)
	}
}

func (c *Core) setDest(rd isa.Reg, readyAt uint64, kind producerKind) {
	if rd == isa.X0 {
		return
	}
	c.regReady[rd] = readyAt
	c.regProd[rd] = kind
}

// beginStall blocks the issue stage until now+n; ev (an interned sample
// index, or noEvent) is asserted each stalled cycle.
func (c *Core) beginStall(n uint64, ev int) {
	c.stallUntil = c.cycle + 1 + n
	c.stallEvents = c.stallEvents[:0]
	if ev != noEvent {
		c.stallEvents = append(c.stallEvents, ev)
	}
	c.replayAt = 0
}

func (c *Core) noteDTLB(d mem.DResult) {
	if d.TLBMiss {
		c.assert(idDTLBMiss)
	}
	if d.L2TLBMiss {
		c.assert(idL2TLBMiss)
	}
}

// fetchStage refills the instruction buffer.
func (c *Core) fetchStage() error {
	if c.recovering > 0 || c.fetchBlocked || c.fetchStall > c.cycle ||
		c.refillUntil > c.cycle {
		return nil
	}
	// The fetch group is aligned: a redirect into the second slot of a
	// FetchWidth-instruction window only delivers the window's tail that
	// cycle — the §III source of warm-cache fetch bubbles.
	window := c.Cfg.FetchWidth
	for n := 0; n < window && c.ibufLen() < c.Cfg.IBufEntries; n++ {
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
		// I-cache access per fetch packet start or block change.
		blk := c.Hier.L1I.BlockAddr(rec.PC)
		if n == 0 && (!c.haveFetchBlock || blk != c.lastFetchBlock) {
			ir := c.Hier.AccessI(rec.PC, c.cycle)
			c.lastFetchBlock, c.haveFetchBlock = blk, true
			if ir.TLBMiss {
				c.assert(idITLBMiss)
			}
			if ir.L2TLBMiss {
				c.assert(idL2TLBMiss)
			}
			if ir.Miss {
				c.assert(idICacheMiss)
			}
			if ir.Latency > 0 {
				// Demand miss or late prefetch: the refill is still in
				// flight. The instruction is not delivered; re-fetch it
				// once the refill lands.
				c.refillUntil = c.cycle + uint64(ir.Latency)
				c.putback = append(c.putback, rec)
				return nil
			}
		}
		entry := fetchEntry{rec: rec, availableAt: c.cycle + 1}

		redirecting := rec.NextPC != rec.PC+isa.InstBytes
		switch rec.Inst.Op.Class() {
		case isa.ClassBranch:
			pred := c.Pred.PredictBranch(rec.PC)
			entry.mispredicted = pred != rec.Taken
			c.ibufPush(entry)
			if entry.mispredicted {
				// Frontend runs down the wrong path until the branch
				// resolves at execute.
				c.fetchBlocked = true
				return nil
			}
			if rec.Taken {
				c.redirect(rec, c.Cfg.BTBMissPenalty)
				return nil
			}
		case isa.ClassJump:
			c.ibufPush(entry)
			if redirecting {
				pen := 1 // jal: target known at decode
				if rec.Inst.Op == isa.JALR {
					pen = c.Cfg.JALRPenalty
				}
				c.redirect(rec, pen)
				return nil
			}
		default:
			c.ibufPush(entry)
			if redirecting {
				// ecall or similar: stop the packet.
				return nil
			}
		}
	}
	return nil
}

// redirect charges the fetch-redirect cost for a taken control-flow
// instruction: free on a correct BTB target, a short stall otherwise.
func (c *Core) redirect(rec isa.Retired, missPenalty int) {
	target, ok := c.Pred.PredictTarget(rec.PC)
	if ok && target == rec.NextPC {
		// Predicted redirect: the fetch stream still breaks while the PC
		// wraps around the frontend — the §III warm-cache bubble source.
		if c.Cfg.TakenBubble > 0 {
			c.fetchStall = c.cycle + uint64(c.Cfg.TakenBubble)
		}
		return
	}
	c.assert(idCFTargetMiss)
	c.fetchStall = c.cycle + uint64(missPenalty)
	c.Pred.UpdateTarget(rec.PC, rec.NextPC)
}
