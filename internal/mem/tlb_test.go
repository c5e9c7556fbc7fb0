package mem_test

import (
	"math/rand"
	"testing"

	"icicle/internal/isa"
	"icicle/internal/kernel"
	"icicle/internal/mem"
)

// refTLB is the linear true-LRU TLB the indexed one replaced, kept as
// the oracle: every access scans all entries for the page, and a miss
// fills the last invalid entry or else evicts the least recently used.
type refTLB struct {
	entries []refEntry
	stamp   uint64
}

type refEntry struct {
	vpn   uint64
	valid bool
	lru   uint64
}

func newRefTLB(n int) *refTLB { return &refTLB{entries: make([]refEntry, n)} }

func (t *refTLB) access(addr uint64) bool {
	t.stamp++
	vpn := addr >> 12
	victim := 0
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.vpn == vpn {
			e.lru = t.stamp
			return true
		}
		if !e.valid {
			victim = i
		} else if t.entries[victim].valid && e.lru < t.entries[victim].lru {
			victim = i
		}
	}
	t.entries[victim] = refEntry{vpn: vpn, valid: true, lru: t.stamp}
	return false
}

func (t *refTLB) reset() {
	clear(t.entries)
	t.stamp = 0
}

// checkAgainstOracle replays addrs through a TLB and the oracle at each
// size, resetting both every resetEvery accesses, and requires the same
// hit/miss outcome on every access plus matching counters.
func checkAgainstOracle(t *testing.T, name string, addrs []uint64, resetEvery int) {
	t.Helper()
	for _, n := range []int{1, 32, 512} {
		got, want := mem.NewTLB(n), newRefTLB(n)
		var misses uint64
		for i, a := range addrs {
			if i > 0 && i%resetEvery == 0 {
				got.Reset()
				want.reset()
				misses = 0
			}
			hit, ref := got.Access(a), want.access(a)
			if hit != ref {
				t.Fatalf("%s, %d entries: access %d (page %#x) hit=%v, oracle %v", name, n, i, a>>12, hit, ref)
			}
			if !ref {
				misses++
			}
		}
		if got.Misses != misses {
			t.Errorf("%s, %d entries: Misses = %d, oracle %d", name, n, got.Misses, misses)
		}
	}
}

// TestTLBMatchesLinearLRU pins the indexed TLB to the linear oracle on
// random page streams: uniform over a range wider than the largest TLB,
// and a hot/cold mix that keeps most accesses near the recency front so
// both hits deep in the list and evictions are frequent.
func TestTLBMatchesLinearLRU(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	uniform := make([]uint64, 60000)
	for i := range uniform {
		uniform[i] = uint64(rng.Intn(1200))<<12 | uint64(rng.Intn(4096))
	}
	checkAgainstOracle(t, "uniform", uniform, 17011)

	mixed := make([]uint64, 60000)
	for i := range mixed {
		switch r := rng.Intn(10); {
		case r < 6:
			mixed[i] = uint64(rng.Intn(24)) << 12
		case r < 9:
			mixed[i] = uint64(rng.Intn(600)) << 12
		default:
			mixed[i] = rng.Uint64() &^ 0xfff
		}
	}
	checkAgainstOracle(t, "mixed", mixed, 25013)
}

// TestTLBMatchesLinearLRUKernels replays the fetch and data page
// streams of large-footprint kernels, in the order a core would look
// them up, through the indexed TLB and the oracle.
func TestTLBMatchesLinearLRUKernels(t *testing.T) {
	budget := uint64(300_000)
	if testing.Short() {
		budget = 50_000
	}
	for _, name := range []string{"505.mcf_r", "520.omnetpp_r", "500.perlbench_r"} {
		k, err := kernel.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := k.Program()
		if err != nil {
			t.Fatal(err)
		}
		m := mem.NewSparse()
		prog.LoadInto(m)
		cpu := isa.NewCPU(m, prog.Entry)
		var addrs []uint64
		if _, err := cpu.RunForTraced(budget, func(r isa.Retired) {
			addrs = append(addrs, r.PC)
			if r.IsMem() {
				addrs = append(addrs, r.MemAddr)
			}
		}); err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, name, addrs, 200_003)
	}
}
