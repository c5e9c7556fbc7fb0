package pmu

import (
	"fmt"
	"math/bits"
)

// CSR addresses of the counter file (RISC-V privileged spec names).
const (
	CSRMCycle        = 0xB00
	CSRMInstret      = 0xB02
	CSRMHPMCounter3  = 0xB03
	CSRMCountInhibit = 0x320
	CSRMHPMEvent3    = 0x323
	CSRCycle         = 0xC00
	CSRInstret       = 0xC02
	CSRHPMCounter3   = 0xC03
)

// NumHPMCounters is the number of programmable counters: the paper's cores
// expose 31 performance counters total — mcycle, minstret, and 29
// mhpmcounters (Table IV).
const NumHPMCounters = 29

// Selector is one mhpmevent register's decoded contents: an 8-bit event-set
// ID and a 56-bit mask selecting events within the set (§IV-D step 2-3).
type Selector struct {
	Set  uint8
	Mask uint64 // 56 bits used
}

// Encode packs the selector into its mhpmevent CSR encoding.
func (s Selector) Encode() uint64 { return uint64(s.Set) | s.Mask<<8 }

// DecodeSelector unpacks an mhpmevent CSR value.
func DecodeSelector(v uint64) Selector {
	return Selector{Set: uint8(v), Mask: v >> 8}
}

// PMU is the counter file of one core. It implements isa.CSRFile so that
// in-band software (the perf harness) can program and read it with CSR
// instructions, and exposes a direct Go API for out-of-band use.
type PMU struct {
	Space *Space
	// Arch is the counter microarchitecture. It changes what the counters
	// read, never how the core runs. Set before Configure, which rebuilds
	// each counter from it.
	Arch Architecture

	selectors [NumHPMCounters]Selector
	counters  [NumHPMCounters]counter
	selected  [NumHPMCounters][]int    // event indices per counter
	scratch   [NumHPMCounters][]uint64 // per-cycle asserted lane masks

	inhibit  uint64 // mcountinhibit: bit 0 = cycle, bit 2 = instret, 3.. = hpm
	mcycle   uint64
	minstret uint64

	// DistWidth forces the distributed architecture's local counter width
	// (0 = sized automatically to ceil(log2(sources))). Undersized widths
	// can drop events; see Lost. Set before Configure.
	DistWidth uint
}

// New builds a PMU over the core's event space with the chosen counter
// microarchitecture. All counters start unconfigured (counting nothing)
// and inhibited, matching reset state.
func New(space *Space, arch Architecture) *PMU {
	p := &PMU{Space: space, Arch: arch, inhibit: ^uint64(0)}
	for i := range p.counters {
		p.counters[i] = p.newCounter(nil)
	}
	return p
}

// Reset returns the PMU to its power-on state — all counters
// unconfigured, cleared, and inhibited — without allocating: counter
// hardware resets in place (an unconfigured counter reads zero whatever
// shape its last configuration left it; Configure rebuilds it anyway).
func (p *PMU) Reset() {
	p.inhibit = ^uint64(0)
	p.mcycle = 0
	p.minstret = 0
	for i := range p.counters {
		p.selectors[i] = Selector{}
		p.selected[i] = p.selected[i][:0]
		p.counters[i].reset()
	}
}

func (p *PMU) newCounter(sourceCounts []int) counter {
	switch p.Arch {
	case AddWires:
		return &addWiresCounter{}
	case Distributed:
		return newDistributedCounter(sourceCounts, p.DistWidth)
	default:
		return &scalarCounter{}
	}
}

// Configure programs counter i (0-based; CSR mhpmcounter(3+i)) to count the
// events selected by sel. Reconfiguring resets the counter hardware, as a
// hardware write to mhpmevent would.
func (p *PMU) Configure(i int, sel Selector) error {
	if i < 0 || i >= NumHPMCounters {
		return fmt.Errorf("pmu: counter index %d out of range", i)
	}
	p.selectors[i] = sel
	p.selected[i] = p.selected[i][:0]
	var srcs []int
	for bit := 0; bit < 56; bit++ {
		if sel.Mask&(1<<uint(bit)) == 0 {
			continue
		}
		if idx, ok := p.Space.byID[ID{sel.Set, uint8(bit)}]; ok {
			p.selected[i] = append(p.selected[i], idx)
			srcs = append(srcs, p.Space.Events[idx].Sources)
		}
	}
	p.scratch[i] = make([]uint64, len(p.selected[i]))
	p.counters[i] = p.newCounter(srcs)
	return nil
}

// ConfigureEvents programs counter i to count the named events, which must
// all belong to one event set. It is the Go-level convenience the perf
// harness builds on.
func (p *PMU) ConfigureEvents(i int, names ...string) error {
	if len(names) == 0 {
		return p.Configure(i, Selector{})
	}
	var sel Selector
	for j, n := range names {
		idx, err := p.Space.Index(n)
		if err != nil {
			return err
		}
		e := p.Space.Events[idx]
		if j == 0 {
			sel.Set = e.Set
		} else if e.Set != sel.Set {
			return fmt.Errorf("pmu: events %q (set %d) and %q (set %d) are in different sets and cannot share a counter",
				names[0], sel.Set, n, e.Set)
		}
		sel.Mask |= 1 << uint(e.Bit)
	}
	return p.Configure(i, sel)
}

// SetInhibit sets the whole mcountinhibit register.
func (p *PMU) SetInhibit(v uint64) { p.inhibit = v }

// EnableAll clears every inhibit bit (step 4 of the harness sequence).
func (p *PMU) EnableAll() { p.inhibit = 0 }

// Tick advances the PMU one cycle: sample holds this cycle's event lane
// assertions and retired is the number of instructions committed this
// cycle (for minstret).
func (p *PMU) Tick(sample Sample, retired int) {
	if p.inhibit&1 == 0 {
		p.mcycle++
	}
	if p.inhibit&4 == 0 {
		p.minstret += uint64(retired)
	}
	for i := range p.counters {
		if p.inhibit&(1<<uint(i+3)) != 0 {
			continue
		}
		sel := p.selected[i]
		if len(sel) == 0 {
			continue
		}
		buf := p.scratch[i]
		any := false
		for j, idx := range sel {
			buf[j] = sample[idx]
			any = any || buf[j] != 0
		}
		if any || p.Arch == Distributed {
			// Distributed counters need ticks even on idle cycles so the
			// arbiter keeps rotating.
			p.counters[i].tick(buf)
		}
	}
}

// TickN advances the PMU n cycles that all carry the identical sample and
// per-cycle retire count — the event-driven skip path's bulk form of Tick.
// It is bit-identical to calling Tick(sample, retired) n times: scalar and
// add-wires counters admit a closed form, while distributed counters are
// stepped cycle by cycle because their rotating arbiter makes the global
// counter depend on the tick phase, not just the tick count.
func (p *PMU) TickN(sample Sample, retired int, n uint64) {
	if n == 0 {
		return
	}
	if p.inhibit&1 == 0 {
		p.mcycle += n
	}
	if p.inhibit&4 == 0 {
		p.minstret += uint64(retired) * n
	}
	for i := range p.counters {
		if p.inhibit&(1<<uint(i+3)) != 0 {
			continue
		}
		sel := p.selected[i]
		if len(sel) == 0 {
			continue
		}
		buf := p.scratch[i]
		any := false
		for j, idx := range sel {
			buf[j] = sample[idx]
			any = any || buf[j] != 0
		}
		if any || p.Arch == Distributed {
			p.counters[i].tickN(buf, n)
		}
	}
}

// Read returns the software-visible value of programmable counter i.
func (p *PMU) Read(i int) uint64 {
	if i < 0 || i >= NumHPMCounters {
		return 0
	}
	return p.counters[i].read()
}

// Cycles returns mcycle.
func (p *PMU) Cycles() uint64 { return p.mcycle }

// Instret returns minstret.
func (p *PMU) Instret() uint64 { return p.minstret }

// Residue returns the undercount currently hidden in counter i's local
// counters (0 for scalar/add-wires). Exposed for experiment E15.
func (p *PMU) Residue(i int) uint64 {
	if d, ok := p.counters[i].(*distributedCounter); ok {
		return d.Residue()
	}
	return 0
}

// LocalWidth returns counter i's distributed local-counter width, or 0.
func (p *PMU) LocalWidth(i int) uint {
	if d, ok := p.counters[i].(*distributedCounter); ok {
		return d.Width()
	}
	return 0
}

// Lost returns the events counter i dropped because an undersized local
// counter wrapped before the arbiter drained it (always 0 at the
// automatic width).
func (p *PMU) Lost(i int) uint64 {
	if d, ok := p.counters[i].(*distributedCounter); ok {
		return d.Lost()
	}
	return 0
}

// Selectors returns the current counter programming (for diagnostics and
// the VLSI model).
func (p *PMU) Selectors() []Selector {
	out := make([]Selector, NumHPMCounters)
	copy(out, p.selectors[:])
	return out
}

// ReadCSR implements isa.CSRFile.
func (p *PMU) ReadCSR(addr uint16) uint64 {
	switch {
	case addr == CSRMCycle || addr == CSRCycle:
		return p.mcycle
	case addr == CSRMInstret || addr == CSRInstret:
		return p.minstret
	case addr == CSRMCountInhibit:
		return p.inhibit
	case addr >= CSRMHPMCounter3 && addr < CSRMHPMCounter3+NumHPMCounters:
		return p.Read(int(addr - CSRMHPMCounter3))
	case addr >= CSRHPMCounter3 && addr < CSRHPMCounter3+NumHPMCounters:
		return p.Read(int(addr - CSRHPMCounter3))
	case addr >= CSRMHPMEvent3 && addr < CSRMHPMEvent3+NumHPMCounters:
		return p.selectors[addr-CSRMHPMEvent3].Encode()
	}
	return 0
}

// WriteCSR implements isa.CSRFile.
func (p *PMU) WriteCSR(addr uint16, val uint64) {
	switch {
	case addr == CSRMCycle:
		p.mcycle = val
	case addr == CSRMInstret:
		p.minstret = val
	case addr == CSRMCountInhibit:
		p.inhibit = val
	case addr >= CSRMHPMCounter3 && addr < CSRMHPMCounter3+NumHPMCounters:
		p.counters[addr-CSRMHPMCounter3].write(val)
	case addr >= CSRMHPMEvent3 && addr < CSRMHPMEvent3+NumHPMCounters:
		// Hardware decodes the selector combinationally from the CSR.
		_ = p.Configure(int(addr-CSRMHPMEvent3), DecodeSelector(val))
	}
}

// PopCount is a helper for tests: total asserted sources in a sample for
// event idx.
func PopCount(sample Sample, idx int) int { return bits.OnesCount64(sample[idx]) }
