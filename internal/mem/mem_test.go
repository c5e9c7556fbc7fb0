package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSparseRoundTrip(t *testing.T) {
	m := NewSparse()
	f := func(addr uint64, val uint64, sz uint8) bool {
		size := int(sz%8) + 1
		addr &= 0xFFFFFF
		m.Store(addr, size, val)
		got := m.Load(addr, size)
		want := val
		if size < 8 {
			want &= 1<<(8*size) - 1
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSparseCrossFrameAccess(t *testing.T) {
	m := NewSparse()
	addr := uint64(frameSize - 3) // straddles the frame boundary
	m.Store(addr, 8, 0x1122334455667788)
	if got := m.Load(addr, 8); got != 0x1122334455667788 {
		t.Fatalf("cross-frame load = %#x", got)
	}
}

func TestSparseUnwrittenReadsZero(t *testing.T) {
	m := NewSparse()
	if m.Load(0x123456, 8) != 0 {
		t.Fatal("unwritten memory nonzero")
	}
}

func TestSparseBytes(t *testing.T) {
	m := NewSparse()
	data := []byte("hello, icicle")
	m.WriteBytes(0x8000, data)
	if got := string(m.ReadBytes(0x8000, len(data))); got != string(data) {
		t.Fatalf("got %q", got)
	}
	if m.Footprint() == 0 {
		t.Fatal("footprint zero after write")
	}
}

func TestCacheConfigValidation(t *testing.T) {
	bad := []CacheConfig{
		{Name: "z", SizeBytes: 0, Ways: 1, BlockBytes: 64},
		{Name: "b", SizeBytes: 1024, Ways: 1, BlockBytes: 48},       // non-pow2 block
		{Name: "s", SizeBytes: 1000, Ways: 2, BlockBytes: 64},       // not divisible
		{Name: "t", SizeBytes: 64 * 2 * 3, Ways: 2, BlockBytes: 64}, // 3 sets
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%+v validated", cfg)
		}
	}
	good := CacheConfig{Name: "ok", SizeBytes: 32 << 10, Ways: 8, BlockBytes: 64}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.Sets() != 64 {
		t.Fatalf("sets = %d", good.Sets())
	}
}

func TestHierarchyConfigValidation(t *testing.T) {
	if err := DefaultHierarchyConfig(2).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (HierarchyConfig{}).Validate(); err == nil {
		t.Error("zero hierarchy validated")
	}
	badL2 := DefaultHierarchyConfig(2)
	badL2.L2.Ways = 3
	if err := badL2.Validate(); err == nil {
		t.Error("non-power-of-two L2 set count validated")
	}
	neg := DefaultHierarchyConfig(2)
	neg.MemLatency = -1
	if err := neg.Validate(); err == nil {
		t.Error("negative memory latency validated")
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(CacheConfig{Name: "t", SizeBytes: 1024, Ways: 2, BlockBytes: 64})
	if r := c.Access(0, false); r.Hit {
		t.Fatal("cold access hit")
	}
	if r := c.Access(32, false); !r.Hit {
		t.Fatal("same-block access missed")
	}
	if !c.Probe(0) || c.Probe(4096) {
		t.Fatal("probe wrong")
	}
	st := c.Stats()
	if st.Accesses != 2 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way, 64B blocks, 2 sets (256 B total).
	c := NewCache(CacheConfig{Name: "t", SizeBytes: 256, Ways: 2, BlockBytes: 64})
	// Fill set 0 with blocks 0 and 2 (set = block & 1).
	c.Access(0*64, false)
	c.Access(2*64, false)
	c.Access(0*64, false) // touch block 0: block 2 becomes LRU
	r := c.Access(4*64, false)
	if r.Hit || !r.Evicted {
		t.Fatalf("expected eviction, got %+v", r)
	}
	if !c.Probe(0) {
		t.Fatal("LRU evicted the wrong way")
	}
	if c.Probe(2 * 64) {
		t.Fatal("victim still present")
	}
}

func TestCacheWritebackRelease(t *testing.T) {
	c := NewCache(CacheConfig{Name: "t", SizeBytes: 128, Ways: 1, BlockBytes: 64})
	c.Access(0, true) // dirty
	r := c.Access(128, false)
	if !r.Writeback {
		t.Fatalf("dirty eviction did not write back: %+v", r)
	}
	if c.Stats().Releases != 1 {
		t.Fatalf("releases = %d", c.Stats().Releases)
	}
}

func TestCacheFlush(t *testing.T) {
	c := NewCache(CacheConfig{Name: "t", SizeBytes: 1024, Ways: 2, BlockBytes: 64})
	c.Access(0, false)
	c.Flush()
	if c.Probe(0) {
		t.Fatal("flush did not invalidate")
	}
}

func TestCacheInstallQuiet(t *testing.T) {
	c := NewCache(CacheConfig{Name: "t", SizeBytes: 1024, Ways: 2, BlockBytes: 64})
	c.Install(0)
	st := c.Stats()
	if st.Accesses != 0 || st.Misses != 0 {
		t.Fatalf("install polluted stats: %+v", st)
	}
	if r := c.Access(0, false); !r.Hit {
		t.Fatal("installed block not present")
	}
}

func TestMSHRMergeAndOccupancy(t *testing.T) {
	f := NewMSHRFile(2)
	if !f.Allocate(100, 0, 50) {
		t.Fatal("allocate failed")
	}
	if ready, ok := f.Lookup(100, 10); !ok || ready != 50 {
		t.Fatalf("lookup = %d, %v", ready, ok)
	}
	if f.Busy(10) != 1 {
		t.Fatalf("busy = %d", f.Busy(10))
	}
	if !f.Allocate(200, 10, 90) {
		t.Fatal("second allocate failed")
	}
	if f.Allocate(300, 20, 120) {
		t.Fatal("third allocate succeeded with full file")
	}
	if f.FullStalls != 1 {
		t.Fatalf("full stalls = %d", f.FullStalls)
	}
	// After 50, the first entry is free.
	if !f.Allocate(300, 60, 140) {
		t.Fatal("allocate after completion failed")
	}
	if f.AnyBusy(200) {
		t.Fatal("busy after all completions")
	}
}

func TestTLB(t *testing.T) {
	tlb := NewTLB(2)
	if tlb.Access(0x1000) {
		t.Fatal("cold TLB hit")
	}
	if !tlb.Access(0x1008) {
		t.Fatal("same-page miss")
	}
	tlb.Access(0x2000)
	tlb.Access(0x1000) // keep page 1 warm
	tlb.Access(0x3000) // evicts page 2 (LRU)
	if !tlb.Access(0x1000) {
		t.Fatal("page 1 evicted out of LRU order")
	}
	if tlb.Access(0x2000) {
		t.Fatal("page 2 should have been evicted")
	}
	if tlb.MissRate() <= 0 {
		t.Fatal("no miss rate")
	}
}

func TestHierarchyILatencies(t *testing.T) {
	cfg := DefaultHierarchyConfig(2)
	cfg.NextLinePrefetch = false
	h := NewHierarchy(cfg)
	r := h.AccessI(0x10000, 0)
	if !r.Miss || !r.L2Miss {
		t.Fatalf("cold fetch: %+v", r)
	}
	wantLat := cfg.L2HitLatency + cfg.MemLatency + cfg.PTWLatency
	if r.Latency != wantLat {
		t.Fatalf("latency = %d, want %d", r.Latency, wantLat)
	}
	r = h.AccessI(0x10000, 1)
	if r.Miss || r.Latency != 0 {
		t.Fatalf("warm fetch: %+v", r)
	}
}

func TestHierarchyNextLinePrefetch(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig(2))
	h.AccessI(0x10000, 0)
	r := h.AccessI(0x10040, 1) // next block: prefetched
	if r.Miss {
		t.Fatalf("next-line not prefetched: %+v", r)
	}
}

func TestHierarchyDMSHRMerge(t *testing.T) {
	cfg := DefaultHierarchyConfig(4)
	h := NewHierarchy(cfg)
	r1 := h.AccessD(0x20000, false, 0)
	if !r1.Miss || r1.Merged {
		t.Fatalf("first access: %+v", r1)
	}
	r2 := h.AccessD(0x20008, false, 5)
	// Same block: the line is already installed in L1 by the first
	// access's refill model, so this hits.
	if !r2.Miss && r2.Latency != 0 {
		t.Fatalf("same-block followup: %+v", r2)
	}
	if !h.MSHRs.AnyBusy(5) {
		t.Fatal("MSHR not busy during refill window")
	}
}

func TestHierarchyRandomizedMSHRBound(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig(4))
	r := rand.New(rand.NewSource(3))
	for now := uint64(0); now < 10_000; now += 7 {
		addr := uint64(r.Intn(1 << 22))
		h.AccessD(addr, r.Intn(2) == 0, now)
		if b := h.MSHRs.Busy(now); b > 4 {
			t.Fatalf("MSHR occupancy %d exceeds file size", b)
		}
	}
}
