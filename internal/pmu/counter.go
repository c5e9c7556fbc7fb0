package pmu

import (
	"fmt"
	"math/bits"
)

// Architecture selects the counter microarchitecture (§IV-B).
type Architecture uint8

const (
	// Scalar is the baseline: one 1-bit increment wire per counter; when
	// several selected event sources fire in a cycle, the counter still
	// increments by one (the §II-A semantics). Wide events therefore
	// undercount unless every lane gets its own counter.
	Scalar Architecture = iota
	// AddWires locally sums the asserted sources into a multi-bit
	// increment (a sequential adder chain in the paper's Chisel
	// implementation), so a single counter tracks concurrent events
	// exactly.
	AddWires
	// Distributed places a small local counter at each event source;
	// overflow bits are drained into the principal counter by a rotating
	// one-hot arbiter. Reads undercount by at most sources × 2^width
	// (the residue left in local counters).
	Distributed
)

var archNames = [...]string{"scalar", "add-wires", "distributed"}

func (a Architecture) String() string {
	if int(a) < len(archNames) {
		return archNames[a]
	}
	return fmt.Sprintf("arch(%d)", uint8(a))
}

// counter is the hardware behind one mhpmcounter CSR.
type counter interface {
	// tick advances one cycle; asserted is the per-selected-event lane
	// masks (pre-filtered to this counter's selection).
	tick(asserted []uint64)
	// tickN advances n cycles that all carry the identical asserted
	// masks, bit-identical to n tick calls (the bulk skip path).
	tickN(asserted []uint64, n uint64)
	// read returns the software-visible value.
	read() uint64
	// write sets the architectural count (software CSR write).
	write(v uint64)
	// reset clears all counting state in place (PMU.Reset, so pooled
	// cores reset without allocating). An unconfigured reset counter
	// reads zero regardless of its previous shape; Configure rebuilds
	// the hardware anyway.
	reset()
}

// --- Scalar ---

type scalarCounter struct{ v uint64 }

func (c *scalarCounter) tick(asserted []uint64) {
	for _, m := range asserted {
		if m != 0 {
			c.v++ // one increment regardless of how many lanes/events fired
			return
		}
	}
}

func (c *scalarCounter) tickN(asserted []uint64, n uint64) {
	for _, m := range asserted {
		if m != 0 {
			c.v += n // one increment per cycle regardless of lane count
			return
		}
	}
}

func (c *scalarCounter) read() uint64   { return c.v }
func (c *scalarCounter) write(v uint64) { c.v = v }
func (c *scalarCounter) reset()         { c.v = 0 }

// --- AddWires ---

type addWiresCounter struct {
	v uint64
	// chainLen records the deepest adder chain exercised, for the VLSI
	// model's combinational-delay estimate.
	chainLen int
}

func (c *addWiresCounter) tick(asserted []uint64) {
	inc := 0
	for _, m := range asserted {
		inc += bits.OnesCount64(m)
	}
	if inc > c.chainLen {
		c.chainLen = inc
	}
	c.v += uint64(inc)
}

func (c *addWiresCounter) tickN(asserted []uint64, n uint64) {
	inc := 0
	for _, m := range asserted {
		inc += bits.OnesCount64(m)
	}
	if inc > c.chainLen {
		c.chainLen = inc // the same chain depth every repeated cycle
	}
	c.v += uint64(inc) * n
}

func (c *addWiresCounter) read() uint64   { return c.v }
func (c *addWiresCounter) write(v uint64) { c.v = v }

func (c *addWiresCounter) reset() {
	c.v = 0
	c.chainLen = 0
}

// --- Distributed ---

type distributedCounter struct {
	offsets  []int    // per selected event: base index into locals
	locals   []uint32 // local counter values, one per source
	overflow []bool   // per-source overflow flag
	width    uint     // local counter width N; overflow represents 2^N events
	next     int      // rotating one-hot arbiter position
	global   uint64   // principal counter, in units of 2^width
	lost     uint64   // events dropped by wrap-while-pending (undersized width)
}

// newDistributedCounter sizes the local counters so the arbiter always
// drains an overflow before the same local counter can overflow again:
// with S sources the arbiter revisits a source every S cycles, and a local
// counter needs 2^N cycles of continuous assertion to overflow, so we need
// 2^N ≥ S. sourceCounts gives the lane count of each selected event.
// widthOverride forces a specific local width (0 = auto); undersized
// widths can drop events (tracked in lost) — the width-sweep ablation.
func newDistributedCounter(sourceCounts []int, widthOverride uint) *distributedCounter {
	offsets := make([]int, len(sourceCounts))
	total := 0
	for i, n := range sourceCounts {
		offsets[i] = total
		total += n
	}
	if total < 1 {
		total = 1
	}
	width := uint(bits.Len(uint(total - 1))) // ceil(log2(S))
	if width == 0 {
		width = 1
	}
	if widthOverride > 0 {
		width = widthOverride
	}
	return &distributedCounter{
		offsets:  offsets,
		locals:   make([]uint32, total),
		overflow: make([]bool, total),
		width:    width,
	}
}

func (c *distributedCounter) tick(asserted []uint64) {
	// Local counters: one per source (event-major, lane-minor order).
	for e, m := range asserted {
		base := c.offsets[e]
		for m != 0 {
			lane := bits.TrailingZeros64(m)
			m &^= 1 << uint(lane)
			i := base + lane
			if i >= len(c.locals) {
				break
			}
			c.locals[i]++
			if c.locals[i] == 1<<c.width {
				c.locals[i] = 0
				if c.overflow[i] {
					// Wrap while the previous overflow is still waiting
					// for the arbiter: 2^N events are silently dropped
					// (only possible when the width is undersized).
					c.lost += 1 << c.width
				}
				c.overflow[i] = true
			}
		}
	}
	// Rotating one-hot arbiter: service one overflow flag per cycle.
	i := c.next
	c.next = (c.next + 1) % len(c.locals)
	if c.overflow[i] {
		c.overflow[i] = false // clear-on-select
		c.global++
	}
}

// tickN has no closed form for the distributed architecture: the global
// counter's value depends on which overflow flags the rotating arbiter
// visits on which cycle, so repeated identical cycles are genuinely
// phase-dependent. Stepping keeps the skip path bit-identical; it only
// costs when a counter is programmed AND the core skips, which the
// perf-harness workloads (short counter windows) keep rare.
func (c *distributedCounter) tickN(asserted []uint64, n uint64) {
	for ; n > 0; n-- {
		c.tick(asserted)
	}
}

func (c *distributedCounter) read() uint64 {
	// Software post-processes by the counter width (artifact §F): the
	// principal counter holds event count / 2^width.
	return c.global << c.width
}

func (c *distributedCounter) write(v uint64) {
	c.global = v >> c.width
	for i := range c.locals {
		c.locals[i] = 0
		c.overflow[i] = false
	}
}

func (c *distributedCounter) reset() {
	c.global = 0
	c.lost = 0
	c.next = 0
	for i := range c.locals {
		c.locals[i] = 0
		c.overflow[i] = false
	}
}

// Residue returns the events currently held in local counters and pending
// overflow flags — the amount by which read() undercounts. Exposed for the
// undercount-bound experiments (E15).
func (c *distributedCounter) Residue() uint64 {
	var r uint64
	for i, v := range c.locals {
		r += uint64(v)
		if c.overflow[i] {
			r += 1 << c.width
		}
	}
	return r
}

// Width returns the local counter width N.
func (c *distributedCounter) Width() uint { return c.width }

// Lost returns the events dropped by wrap-while-pending.
func (c *distributedCounter) Lost() uint64 { return c.lost }
