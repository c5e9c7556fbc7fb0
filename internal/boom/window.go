package boom

import (
	"math"
	"math/bits"

	"icicle/internal/branch"
	"icicle/internal/isa"
	"icicle/internal/mem"
)

// Sampled-simulation support: the state-handoff contract internal/sample
// drives (see DESIGN.md "Sampled simulation"). A detailed window runs
// the same RunWindow loop as a full run (core.go), so the 0 allocs/op
// invariant holds inside windows too.

// ResetPipeline clears the pipeline and timing bookkeeping only: the
// fetch buffer, putback list, wrong-path state, ROB, issue queues, rename
// table, in-flight set, and the uop arena. Everything architectural or
// cumulative survives — CPU state, memory, caches, TLBs, predictors, RAS,
// PMU, event tallies, the seq counter, and the cycle counter — so a
// sampling controller can abandon a window's in-flight uops (their
// architectural effects already landed in the shared functional CPU) and
// later attach a fresh window against the still-warm microarchitectural
// state.
func (c *Core) ResetPipeline() {
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
	c.issuedThisCycle = 0

	// Defensive: a detached core must not skip until a run loop installs
	// its window/budget bound again.
	c.skipLimit = 0
	c.quiet = false

	c.done = false
}

// Attach hands the core an architectural state mid-program: the CPU is
// restored from ck and the pipeline is cleared, while caches, predictors,
// tallies, and the cycle counter carry over. The core's memory must
// already hold the image matching ck — the sampling controller guarantees
// this by fast-forwarding the core's own CPU, so the memory is shared and
// always current.
func (c *Core) Attach(ck isa.Checkpoint) {
	c.CPU.Restore(ck)
	c.ResetPipeline()
}

// WindowInstBound returns an upper bound on the instructions the core's
// CPU executes functionally in a detailed window of the given number of
// cycles, saturating at MaxUint64. Two parts, both read off the cycle
// loop:
//   - retirement: commitStage retires at most DecodeWidth instructions
//     per step, every step advances at least one cycle, and a
//     bulk-skipped stretch retires nothing;
//   - fetch-ahead: CPU.Step runs at fetch (next), and only when the
//     putback list is empty and the fetch buffer has a free slot. An
//     executed but unretired record lives in the ROB, the fetch buffer,
//     or the putback list; flushes and refetches move records between
//     them without executing anything, and wrong-path uops are decoded
//     from memory, never executed. So those records never number more
//     than ROBEntries + FBEntries.
func (c *Core) WindowInstBound(cycles uint64) uint64 {
	hi, n := bits.Mul64(cycles, uint64(c.Cfg.DecodeWidth))
	n, carry := bits.Add64(n, uint64(c.Cfg.ROBEntries+c.Cfg.FBEntries), 0)
	if hi != 0 || carry != 0 {
		return math.MaxUint64
	}
	return n
}

// BeginWindow rebases the core for a schedule-independent detailed
// window: the cycle clock, PMU, uop sequence numbers, cache hierarchy,
// and predictors (including the RAS) all return to their power-on state
// while the architectural state — CPU registers, memory, cumulative
// event tallies, and the retired-instruction total — is untouched. After
// BeginWindow the core's timing state is a pure function of what runs
// next, which is what lets the two-phase sampled engine execute windows
// on any worker in any order and still merge bit-identical results.
func (c *Core) BeginWindow() {
	c.flushTelemetry()
	c.cycle = 0
	c.telCycles = 0
	c.seq = 0
	c.PMU.Reset()
	c.Hier.Reset()
	branch.Reset(c.Pred)
	if c.RAS != nil {
		c.RAS.Reset()
	}
}

// Memory returns the core's backing sparse memory (the image its CPU and
// caches address). The two-phase sampled engine applies producer frame
// deltas to it between windows.
func (c *Core) Memory() *mem.Sparse { return c.memory }

// Done reports whether the workload has halted and the pipeline drained.
func (c *Core) Done() bool { return c.done }

// CopyTally copies the dense per-event totals into dst (grown if needed)
// and returns it. The slice is indexed like Space.Events; the sampling
// controller diffs snapshots taken around each window.
func (c *Core) CopyTally(dst []uint64) []uint64 {
	n := c.tally.Len()
	if cap(dst) < n {
		dst = make([]uint64, n)
	}
	dst = dst[:n]
	copy(dst, c.tally.Totals)
	return dst
}
