package rocket

import (
	"icicle/internal/branch"
	"icicle/internal/isa"
	"icicle/internal/mem"
)

// Sampled-simulation support: the state-handoff contract internal/sample
// drives (see DESIGN.md "Sampled simulation"). A detailed window runs
// the same RunWindow loop as a full run (core.go), so the 0 allocs/op
// invariant holds inside windows too.

// ResetPipeline clears the pipeline and timing bookkeeping only: the
// instruction buffer, putback list, fetch/stall/recovery state, and the
// register scoreboard. Everything architectural or cumulative survives —
// CPU state, memory, caches, TLBs, predictors, PMU, event tallies, and
// the cycle counter — so a sampling controller can abandon a window's
// in-flight instructions (their architectural effects already landed in
// the shared functional CPU) and later attach a fresh window against the
// still-warm microarchitectural state.
func (c *Core) ResetPipeline() {
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
//   - retirement: issueStage retires at most one instruction per step,
//     every step advances at least one cycle, and a bulk-skipped stretch
//     retires nothing, so a window retires at most cycles instructions;
//   - fetch-ahead: CPU.Step runs at fetch (next), and only when the
//     putback list is empty and the instruction buffer has a free slot.
//     Issue and retire share a cycle, so an executed but unretired
//     record lives only in the buffer or the putback list, and squashes
//     and refetches move records between the two without executing
//     anything: together they never hold more than IBufEntries.
func (c *Core) WindowInstBound(cycles uint64) uint64 {
	return satAdd(cycles, uint64(c.Cfg.IBufEntries))
}

// BeginWindow rebases the core for a schedule-independent detailed
// window: the cycle clock, PMU, cache hierarchy, and predictors return
// to their power-on state while the architectural state — CPU registers,
// memory, cumulative event tallies, and the retired-instruction total —
// is untouched. After BeginWindow the core's timing state is a pure
// function of what runs next, which is what lets the two-phase sampled
// engine execute windows on any worker in any order and still merge
// bit-identical results.
func (c *Core) BeginWindow() {
	c.flushTelemetry()
	c.cycle = 0
	c.telCycles = 0
	c.PMU.Reset()
	c.Hier.Reset()
	branch.Reset(c.Pred)
}

// Memory returns the core's backing sparse memory (the image its CPU and
// caches address). The two-phase sampled engine applies producer frame
// deltas to it between windows.
func (c *Core) Memory() *mem.Sparse { return c.memory }

// Done reports whether the workload has halted and the pipeline drained.
func (c *Core) Done() bool { return c.done }

// CopyTally copies the dense per-event totals into dst (grown if needed)
// and returns it. The slice is indexed like Events.Events; the sampling
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
