package pmu

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func testSpace(t *testing.T) *Space {
	t.Helper()
	s, err := NewSpace([]Event{
		{Name: "cycles", Set: 0, Bit: 0, Sources: 1},
		{Name: "fetch-bubbles", Set: 1, Bit: 0, Sources: 3},
		{Name: "uops-issued", Set: 1, Bit: 1, Sources: 5},
		{Name: "dcache-miss", Set: 2, Bit: 0, Sources: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpaceValidation(t *testing.T) {
	bad := [][]Event{
		{{Name: "a", Sources: 0}},
		{{Name: "a", Sources: 65}},
		{{Name: "a", Bit: 56, Sources: 1}},
		{{Name: "a", Sources: 1}, {Name: "a", Bit: 1, Sources: 1}},
		{{Name: "a", Sources: 1}, {Name: "b", Sources: 1}}, // same (set,bit)
	}
	for i, evs := range bad {
		if _, err := NewSpace(evs); err == nil {
			t.Errorf("case %d: NewSpace succeeded, want error", i)
		}
	}
}

func TestSampleOps(t *testing.T) {
	s := testSpace(t)
	m := s.NewSample()
	fb := s.MustIndex("fetch-bubbles")
	m.Assert(fb, 0)
	m.Assert(fb, 2)
	if m.Lanes(fb) != 0b101 {
		t.Fatalf("lanes = %b", m.Lanes(fb))
	}
	if PopCount(m, fb) != 2 {
		t.Fatalf("popcount = %d", PopCount(m, fb))
	}
	m.AssertN(fb, 3)
	if m.Lanes(fb) != 0b111 {
		t.Fatalf("AssertN lanes = %b", m.Lanes(fb))
	}
	m.Reset()
	if m.Any(fb) {
		t.Fatal("reset did not clear")
	}
}

func TestSelectorEncoding(t *testing.T) {
	f := func(set uint8, mask uint64) bool {
		mask &= 1<<56 - 1
		s := Selector{Set: set, Mask: mask}
		return DecodeSelector(s.Encode()) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// drive feeds n cycles where event idx asserts `lanes` sources each cycle.
func drive(p *PMU, s *Space, name string, lanes, cycles int) {
	idx := s.MustIndex(name)
	sample := s.NewSample()
	for c := 0; c < cycles; c++ {
		sample.Reset()
		sample.AssertN(idx, lanes)
		p.Tick(sample, 1)
	}
}

func TestScalarUndercountsConcurrentEvents(t *testing.T) {
	s := testSpace(t)
	p := New(s, Scalar)
	if err := p.ConfigureEvents(0, "fetch-bubbles"); err != nil {
		t.Fatal(err)
	}
	p.EnableAll()
	drive(p, s, "fetch-bubbles", 3, 100)
	// 300 source assertions, but the scalar counter saw "any lane high"
	// on 100 cycles.
	if got := p.Read(0); got != 100 {
		t.Fatalf("scalar count = %d, want 100", got)
	}
}

func TestAddWiresCountsExactly(t *testing.T) {
	s := testSpace(t)
	p := New(s, AddWires)
	if err := p.ConfigureEvents(0, "fetch-bubbles"); err != nil {
		t.Fatal(err)
	}
	p.EnableAll()
	drive(p, s, "fetch-bubbles", 3, 100)
	if got := p.Read(0); got != 300 {
		t.Fatalf("add-wires count = %d, want 300", got)
	}
}

func TestDistributedUndercountBound(t *testing.T) {
	s := testSpace(t)
	p := New(s, Distributed)
	if err := p.ConfigureEvents(0, "fetch-bubbles"); err != nil {
		t.Fatal(err)
	}
	p.EnableAll()
	const cycles = 10_000
	drive(p, s, "fetch-bubbles", 3, cycles)
	exact := uint64(3 * cycles)
	got := p.Read(0)
	if got > exact {
		t.Fatalf("distributed overcounts: %d > %d", got, exact)
	}
	// §IV-B: undercount ≤ sources × 2^N.
	bound := uint64(3) << p.LocalWidth(0)
	if exact-got > bound {
		t.Fatalf("undercount %d exceeds bound %d", exact-got, bound)
	}
	// Residue + read must equal the exact count (nothing is ever lost,
	// only deferred).
	if got+p.Residue(0) != exact {
		t.Fatalf("read %d + residue %d != exact %d", got, p.Residue(0), exact)
	}
}

func TestDistributedConservationQuick(t *testing.T) {
	// Property: for any random assertion pattern, read() + residue ==
	// exact source count, and read() never exceeds exact.
	s := testSpace(t)
	f := func(seed int64, cyc uint16) bool {
		p := New(s, Distributed)
		if err := p.ConfigureEvents(0, "fetch-bubbles", "uops-issued"); err != nil {
			return false
		}
		p.EnableAll()
		r := rand.New(rand.NewSource(seed))
		fb := s.MustIndex("fetch-bubbles")
		ui := s.MustIndex("uops-issued")
		sample := s.NewSample()
		var exact uint64
		cycles := int(cyc%2000) + 1
		for c := 0; c < cycles; c++ {
			sample.Reset()
			a, b := r.Intn(4), r.Intn(6)
			sample.AssertN(fb, a)
			sample.AssertN(ui, b)
			exact += uint64(a + b)
			p.Tick(sample, 1)
		}
		return p.Read(0) <= exact && p.Read(0)+p.Residue(0) == exact
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEventSetMultiplexRules(t *testing.T) {
	s := testSpace(t)
	p := New(s, AddWires)
	// Same set: OK.
	if err := p.ConfigureEvents(0, "fetch-bubbles", "uops-issued"); err != nil {
		t.Fatalf("same-set config failed: %v", err)
	}
	// Cross-set: rejected (§II-A).
	if err := p.ConfigureEvents(1, "cycles", "dcache-miss"); err == nil {
		t.Fatal("cross-set configuration succeeded, want error")
	}
}

func TestSharedCounterORSemantics(t *testing.T) {
	// §II-A: two same-set events on one scalar counter increment it once
	// when both fire in the same cycle.
	s := testSpace(t)
	p := New(s, Scalar)
	if err := p.ConfigureEvents(0, "fetch-bubbles", "uops-issued"); err != nil {
		t.Fatal(err)
	}
	p.EnableAll()
	sample := s.NewSample()
	sample.AssertN(s.MustIndex("fetch-bubbles"), 1)
	sample.AssertN(s.MustIndex("uops-issued"), 1)
	p.Tick(sample, 0)
	if got := p.Read(0); got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
}

func TestEventOnMultipleCounters(t *testing.T) {
	s := testSpace(t)
	p := New(s, AddWires)
	if err := p.ConfigureEvents(0, "fetch-bubbles"); err != nil {
		t.Fatal(err)
	}
	if err := p.ConfigureEvents(1, "fetch-bubbles"); err != nil {
		t.Fatal(err)
	}
	p.EnableAll()
	drive(p, s, "fetch-bubbles", 2, 10)
	if p.Read(0) != 20 || p.Read(1) != 20 {
		t.Fatalf("counts = %d, %d; want 20, 20", p.Read(0), p.Read(1))
	}
}

func TestInhibit(t *testing.T) {
	s := testSpace(t)
	p := New(s, AddWires)
	if err := p.ConfigureEvents(0, "fetch-bubbles"); err != nil {
		t.Fatal(err)
	}
	// All inhibited at reset.
	drive(p, s, "fetch-bubbles", 1, 10)
	if p.Read(0) != 0 || p.Cycles() != 0 || p.Instret() != 0 {
		t.Fatal("counters advanced while inhibited")
	}
	p.EnableAll()
	drive(p, s, "fetch-bubbles", 1, 10)
	if p.Read(0) != 10 || p.Cycles() != 10 || p.Instret() != 10 {
		t.Fatalf("got %d/%d/%d, want 10/10/10", p.Read(0), p.Cycles(), p.Instret())
	}
	// Inhibit only the hpm counter (bit 3).
	p.SetInhibit(1 << 3)
	drive(p, s, "fetch-bubbles", 1, 5)
	if p.Read(0) != 10 {
		t.Fatal("inhibited counter advanced")
	}
	if p.Cycles() != 15 {
		t.Fatalf("cycles = %d, want 15", p.Cycles())
	}
}

func TestCSRInterface(t *testing.T) {
	s := testSpace(t)
	p := New(s, AddWires)
	// Program counter 0 to count fetch-bubbles via the CSR path, exactly
	// as the perf harness does.
	e := s.Events[s.MustIndex("fetch-bubbles")]
	sel := Selector{Set: e.Set, Mask: 1 << uint(e.Bit)}
	p.WriteCSR(CSRMHPMEvent3, sel.Encode())
	p.WriteCSR(CSRMCountInhibit, 0)
	drive(p, s, "fetch-bubbles", 3, 7)
	if got := p.ReadCSR(CSRMHPMCounter3); got != 21 {
		t.Fatalf("csr read = %d, want 21", got)
	}
	// User-mode alias reads the same value.
	if got := p.ReadCSR(CSRHPMCounter3); got != 21 {
		t.Fatalf("user alias = %d, want 21", got)
	}
	// Event CSR reads back its programmed value.
	if got := p.ReadCSR(CSRMHPMEvent3); got != sel.Encode() {
		t.Fatalf("event csr = %#x, want %#x", got, sel.Encode())
	}
	// Counter writes take effect.
	p.WriteCSR(CSRMHPMCounter3, 5)
	if got := p.ReadCSR(CSRMHPMCounter3); got != 5 {
		t.Fatalf("after write, csr = %d, want 5", got)
	}
	// mcycle/minstret write/read.
	p.WriteCSR(CSRMCycle, 123)
	if p.ReadCSR(CSRCycle) != 123 {
		t.Fatal("mcycle write not visible via cycle alias")
	}
}

func TestUnknownCSRReadsZero(t *testing.T) {
	p := New(testSpace(t), Scalar)
	if p.ReadCSR(0x123) != 0 {
		t.Fatal("unknown CSR read nonzero")
	}
}

func TestCounterArchitecturesAgreeOnSingleSourceEvents(t *testing.T) {
	// For 1-source events asserted sparsely, all three architectures must
	// agree exactly once residues are drained.
	s := testSpace(t)
	idx := s.MustIndex("dcache-miss")
	counts := make(map[Architecture]uint64)
	for _, arch := range []Architecture{Scalar, AddWires, Distributed} {
		p := New(s, arch)
		if err := p.ConfigureEvents(0, "dcache-miss"); err != nil {
			t.Fatal(err)
		}
		p.EnableAll()
		r := rand.New(rand.NewSource(7))
		sample := s.NewSample()
		for c := 0; c < 5000; c++ {
			sample.Reset()
			if r.Intn(3) == 0 {
				sample.Assert(idx, 0)
			}
			p.Tick(sample, 0)
		}
		counts[arch] = p.Read(0) + p.Residue(0)
	}
	if counts[Scalar] != counts[AddWires] || counts[AddWires] != counts[Distributed] {
		t.Fatalf("architectures disagree: %v", counts)
	}
}

func TestDistributedWidthSweep(t *testing.T) {
	// The DESIGN.md ablation: sweep the local counter width. Undersized
	// widths (2^N < sources) can drop events; at and above the automatic
	// width nothing is ever lost, but the read-time residue bound grows
	// as sources × 2^N.
	s := testSpace(t)
	idx := s.MustIndex("uops-issued") // 5 sources → auto width 3
	const cycles = 20_000
	for width := uint(1); width <= 6; width++ {
		p := New(s, Distributed)
		p.DistWidth = width
		if err := p.ConfigureEvents(0, "uops-issued"); err != nil {
			t.Fatal(err)
		}
		p.EnableAll()
		sample := s.NewSample()
		r := rand.New(rand.NewSource(int64(width)))
		var exact uint64
		for c := 0; c < cycles; c++ {
			sample.Reset()
			n := r.Intn(6)
			sample.AssertN(idx, n)
			exact += uint64(n)
			p.Tick(sample, 0)
		}
		got := p.Read(0) + p.Residue(0) + p.Lost(0)
		if got != exact {
			t.Fatalf("width %d: %d + %d + %d != exact %d",
				width, p.Read(0), p.Residue(0), p.Lost(0), exact)
		}
		if 1<<width >= 5 && p.Lost(0) != 0 {
			t.Fatalf("width %d (2^N ≥ sources) lost %d events", width, p.Lost(0))
		}
		// The read-time undercount stays within the structural maximum:
		// each source can hold 2^N−1 in its local counter plus one pending
		// overflow flag worth 2^N, i.e. S×(2^(N+1)−1).
		bound := uint64(5) * (2<<width - 1)
		if under := exact - p.Read(0) - p.Lost(0); under > bound {
			t.Fatalf("width %d: residue %d beyond bound %d", width, under, bound)
		}
	}
}

// TestTickNMatchesRepeatedTicks pins the bulk-accounting contract the
// event-driven skip path depends on: TickN(sample, retired, n) must leave
// every observable counter — hpm reads, residues, lost totals, mcycle,
// minstret — exactly where n individual Tick calls with the same sample
// would, on all three counter microarchitectures (the distributed
// arbiter's rotating grant is phase-dependent, so TickN must really turn
// the crank n times there).
func TestTickNMatchesRepeatedTicks(t *testing.T) {
	s := testSpace(t)
	fb, ui := s.MustIndex("fetch-bubbles"), s.MustIndex("uops-issued")
	for _, arch := range []Architecture{Scalar, AddWires, Distributed} {
		bulk, step := New(s, arch), New(s, arch)
		for _, p := range []*PMU{bulk, step} {
			if err := p.ConfigureEvents(0, "fetch-bubbles", "uops-issued"); err != nil {
				t.Fatal(err)
			}
			if err := p.ConfigureEvents(1, "uops-issued"); err != nil {
				t.Fatal(err)
			}
			p.EnableAll()
		}
		r := rand.New(rand.NewSource(11))
		sample := s.NewSample()
		// Interleave single ticks (desynchronizing the arbiter phase from
		// zero) with bulk stretches of every size class the skip path emits.
		for round := 0; round < 200; round++ {
			sample.Reset()
			sample.AssertN(fb, r.Intn(4))
			sample.AssertN(ui, r.Intn(6))
			retired := r.Intn(2)
			n := uint64(r.Intn(70) + 1)
			bulk.TickN(sample, retired, n)
			for i := uint64(0); i < n; i++ {
				step.Tick(sample, retired)
			}
		}
		for ctr := 0; ctr < 2; ctr++ {
			if bulk.Read(ctr) != step.Read(ctr) {
				t.Errorf("%v: counter %d: bulk %d != step %d", arch, ctr, bulk.Read(ctr), step.Read(ctr))
			}
			if bulk.Residue(ctr) != step.Residue(ctr) {
				t.Errorf("%v: counter %d residue: bulk %d != step %d", arch, ctr, bulk.Residue(ctr), step.Residue(ctr))
			}
			if bulk.Lost(ctr) != step.Lost(ctr) {
				t.Errorf("%v: counter %d lost: bulk %d != step %d", arch, ctr, bulk.Lost(ctr), step.Lost(ctr))
			}
		}
		if bulk.Cycles() != step.Cycles() || bulk.Instret() != step.Instret() {
			t.Errorf("%v: cycles/instret: bulk %d/%d != step %d/%d",
				arch, bulk.Cycles(), bulk.Instret(), step.Cycles(), step.Instret())
		}
	}
}

// TestTickNOne pins the degenerate case: TickN with n == 1 is exactly one
// Tick (the cores call TickN only on skip cycles, but the contract should
// hold at the boundary).
func TestTickNOne(t *testing.T) {
	s := testSpace(t)
	for _, arch := range []Architecture{Scalar, AddWires, Distributed} {
		a, b := New(s, arch), New(s, arch)
		for _, p := range []*PMU{a, b} {
			if err := p.ConfigureEvents(0, "fetch-bubbles"); err != nil {
				t.Fatal(err)
			}
			p.EnableAll()
		}
		sample := s.NewSample()
		sample.AssertN(s.MustIndex("fetch-bubbles"), 2)
		a.TickN(sample, 1, 1)
		b.Tick(sample, 1)
		if a.Read(0) != b.Read(0) || a.Cycles() != b.Cycles() || a.Instret() != b.Instret() {
			t.Errorf("%v: TickN(1) diverges from Tick", arch)
		}
	}
}

func TestDistributedUndersizedWidthDropsUnderSaturation(t *testing.T) {
	// With width 1 and 5 sources saturated every cycle, the arbiter
	// (1 service/cycle) cannot keep up and events must be dropped.
	s := testSpace(t)
	p := New(s, Distributed)
	p.DistWidth = 1
	if err := p.ConfigureEvents(0, "uops-issued"); err != nil {
		t.Fatal(err)
	}
	p.EnableAll()
	sample := s.NewSample()
	for c := 0; c < 1000; c++ {
		sample.Reset()
		sample.AssertN(s.MustIndex("uops-issued"), 5)
		p.Tick(sample, 0)
	}
	if p.Lost(0) == 0 {
		t.Fatal("saturated undersized counter lost nothing")
	}
}
