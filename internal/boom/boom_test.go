package boom_test

import (
	"bytes"
	"testing"

	"icicle/internal/asm"
	"icicle/internal/boom"
	"icicle/internal/kernel"
	"icicle/internal/mem"
	"icicle/internal/perf"
	"icicle/internal/pmu"
	"icicle/internal/trace"
)

func large() boom.Config { return boom.NewConfig(boom.Large) }

func run(t *testing.T, cfg boom.Config, src string) boom.Result {
	t.Helper()
	res, err := boom.MustNew(cfg, asm.MustAssemble(src)).Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConfigsValidate(t *testing.T) {
	for _, s := range boom.Sizes {
		cfg := boom.NewConfig(s)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%v: %v", s, err)
		}
		if got, err := boom.ParseSize(cfg.Name); err != nil || got != s {
			t.Errorf("ParseSize(%q) = %v, %v", cfg.Name, got, err)
		}
	}
	if _, err := boom.ParseSize("huge"); err == nil {
		t.Error("ParseSize(huge) succeeded")
	}
	bad := large()
	bad.IntPorts = 0
	if err := bad.Validate(); err == nil {
		t.Error("inconsistent ports validated")
	}
	noCache := large()
	noCache.Hierarchy.L1D = mem.CacheConfig{}
	if err := noCache.Validate(); err == nil {
		t.Error("config without an L1D validated")
	}
	if _, err := boom.New(noCache, asm.MustAssemble("ecall")); err == nil {
		t.Error("boom.New accepted a config without an L1D")
	}
}

func TestILPBoundByIntPorts(t *testing.T) {
	// Independent ALU streams: IPC should approach the INT port count.
	res := run(t, large(), `
		li   t0, 30000
	loop:
		addi a1, a1, 1
		addi a2, a2, 1
		addi a3, a3, 1
		addi a4, a4, 1
		addi a5, a5, 1
		addi t0, t0, -1
		bnez t0, loop
		ecall
	`)
	if ipc := res.IPC(); ipc < 1.8 || ipc > 2.05 {
		t.Fatalf("ILP loop IPC = %.3f, want ≈2 (2 INT ports)", ipc)
	}
}

func TestAllKernelsExecuteCorrectlyUnderTiming(t *testing.T) {
	// Flushes, wrong-path fetch, and replays must never corrupt
	// architectural state.
	for _, k := range kernel.All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			res, _, err := perf.RunBoom(large(), k)
			if err != nil {
				t.Fatal(err)
			}
			if k.Expected != 0 && res.Exit != k.Expected {
				t.Fatalf("exit = %#x, want %#x", res.Exit, k.Expected)
			}
		})
	}
}

func TestAllSizesRunMergesort(t *testing.T) {
	k, _ := kernel.ByName("mergesort")
	prev := uint64(0)
	for _, s := range boom.Sizes {
		res, _, err := perf.RunBoom(boom.NewConfig(s), k)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if res.Exit != k.Expected {
			t.Fatalf("%v: bad checksum", s)
		}
		if prev != 0 && res.Cycles > prev+prev/4 {
			t.Errorf("%v substantially slower than the next-smaller size: %d vs %d",
				s, res.Cycles, prev)
		}
		prev = res.Cycles
	}
}

func TestUopAccountingInvariants(t *testing.T) {
	for _, name := range []string{"qsort", "memcpy", "525.x264_r", "towers"} {
		k, err := kernel.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, b, err := perf.RunBoom(large(), k)
		if err != nil {
			t.Fatal(err)
		}
		if res.Tally[boom.EvUopsIssued] < res.Tally[boom.EvUopsRetired] {
			t.Fatalf("%s: issued < retired", name)
		}
		if res.Tally[boom.EvUopsRetired] != res.Insts {
			t.Fatalf("%s: retired %d != insts %d", name,
				res.Tally[boom.EvUopsRetired], res.Insts)
		}
		if res.Tally[boom.EvInstRet] != res.Insts {
			t.Fatalf("%s: instret tally mismatch", name)
		}
		if b.TopLevelSum() < 0.999 || b.TopLevelSum() > 1.001 {
			t.Fatalf("%s: top level sums to %f", name, b.TopLevelSum())
		}
	}
}

func TestPerLaneIssueUtilizationDecreases(t *testing.T) {
	// Within the INT queue, port 0 is scanned first, so lane 0 must be at
	// least as busy as lane 1 (Table V's pattern).
	k, _ := kernel.ByName("coremark")
	res, _, err := perf.RunBoom(large(), k)
	if err != nil {
		t.Fatal(err)
	}
	lanes := res.LaneTally[boom.EvUopsIssued]
	if len(lanes) != large().IssueWidth {
		t.Fatalf("lane tally width %d", len(lanes))
	}
	if lanes[0] < lanes[1] {
		t.Fatalf("INT lane0 %d < lane1 %d", lanes[0], lanes[1])
	}
	// Fetch-bubble lanes: lane 0 fewest (it fills first), per Table V.
	fb := res.LaneTally[boom.EvFetchBubbles]
	if fb[0] > fb[1] || fb[1] > fb[2] {
		t.Fatalf("fetch-bubble lanes not increasing: %v", fb)
	}
}

func TestBrmissPairOppositeEffects(t *testing.T) {
	km, _ := kernel.ByName("brmiss")
	ki, _ := kernel.ByName("brmiss_inv")
	resM, bM, err := perf.RunBoom(large(), km)
	if err != nil {
		t.Fatal(err)
	}
	resI, bI, err := perf.RunBoom(large(), ki)
	if err != nil {
		t.Fatal(err)
	}
	// Base case: direction is predicted (cold-taken), so no mispredicts —
	// the cost is all frontend resteers (BTB misses).
	if bm := resM.Tally[boom.EvBrMispredict]; bm > 20 {
		t.Fatalf("brmiss: %d mispredicts on BOOM, want ≈0", bm)
	}
	if resM.Tally[boom.EvCFTargetMiss] < 450 {
		t.Fatalf("brmiss: cf-target misses = %d, want ≈500", resM.Tally[boom.EvCFTargetMiss])
	}
	if bM.BadSpec > 0.01 {
		t.Fatalf("brmiss: bad speculation %.3f, want ≈0 (paper Fig. 7n)", bM.BadSpec)
	}
	// Inverted: every branch mispredicts; Bad Speculation explains it.
	if bm := resI.Tally[boom.EvBrMispredict]; bm < 450 {
		t.Fatalf("brmiss_inv: mispredicts = %d, want ≈500", bm)
	}
	if bI.BadSpec < 0.1 {
		t.Fatalf("brmiss_inv: bad speculation %.3f too small", bI.BadSpec)
	}
	// And the inverted build is slower (the paper's BOOM case study).
	if resI.Cycles <= resM.Cycles {
		t.Fatalf("inverted not slower: %d vs %d cycles", resI.Cycles, resM.Cycles)
	}
}

func TestMemBoundProxyAssertsDCacheBlocked(t *testing.T) {
	k, _ := kernel.ByName("505.mcf_r")
	res, b, err := perf.RunBoom(large(), k)
	if err != nil {
		t.Fatal(err)
	}
	if b.MemBound < 0.5 {
		t.Fatalf("mcf proxy mem bound = %.3f", b.MemBound)
	}
	if res.Tally[boom.EvDCacheBlocked] == 0 {
		t.Fatal("no dcache-blocked events")
	}
}

func TestComputeProxyHasNoDCacheBlocked(t *testing.T) {
	k, _ := kernel.ByName("548.exchange2_r")
	res, b, err := perf.RunBoom(large(), k)
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(res.Tally[boom.EvDCacheBlocked]) / float64(res.Cycles*3)
	if frac > 0.01 {
		t.Fatalf("exchange2 D$-blocked fraction = %.4f, want ≈0 (Table V)", frac)
	}
	if b.MemBound > 0.02 {
		t.Fatalf("exchange2 mem bound = %.3f", b.MemBound)
	}
}

func TestRecoveryLengthModeMatchesRedirectLatency(t *testing.T) {
	// Fig. 8b: almost every recovery sequence lasts exactly
	// RedirectLatency cycles.
	k, _ := kernel.ByName("qsort")
	cfg := large()
	c := boom.MustNew(cfg, k.MustProgram())
	bundle := trace.MustBundle(c.Space, boom.EvRecovering)
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, bundle)
	if err != nil {
		t.Fatal(err)
	}
	c.SetCycleHook(w.WriteCycle)
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rd, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, err := trace.NewAnalyzer(rd)
	if err != nil {
		t.Fatal(err)
	}
	cdf, err := a.RecoveryCDF(boom.EvRecovering)
	if err != nil {
		t.Fatal(err)
	}
	if cdf.N() < 100 {
		t.Fatalf("only %d recovery sequences", cdf.N())
	}
	if mode := cdf.Mode(); mode != uint64(cfg.RedirectLatency) {
		t.Fatalf("recovery mode = %d, want %d", mode, cfg.RedirectLatency)
	}
}

func TestCounterArchitecturesConserveEvents(t *testing.T) {
	// E16: AddWires counts exactly; Distributed undercounts by at most
	// its residue; Scalar undercounts multi-lane events.
	k, _ := kernel.ByName("mergesort")
	counts := map[pmu.Architecture]uint64{}
	var exact uint64
	for _, arch := range []pmu.Architecture{pmu.Scalar, pmu.AddWires, pmu.Distributed} {
		c := boom.MustNew(large(), k.MustProgram())
		c.PMU.Arch = arch
		plan := perf.TMAPlan(boom.EvUopsIssued)
		if err := plan.Apply(c.PMU); err != nil {
			t.Fatal(err)
		}
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		counts[arch] = c.PMU.Read(0)
		if arch == pmu.AddWires {
			exact = res.Tally[boom.EvUopsIssued]
			if counts[arch] != exact {
				t.Fatalf("add-wires %d != exact %d", counts[arch], exact)
			}
		}
		if arch == pmu.Distributed {
			if counts[arch]+c.PMU.Residue(0) != exact {
				t.Fatalf("distributed %d + residue %d != exact %d",
					counts[arch], c.PMU.Residue(0), exact)
			}
			bound := uint64(large().IssueWidth) << c.PMU.LocalWidth(0)
			if exact-counts[arch] > bound {
				t.Fatalf("undercount %d exceeds bound %d", exact-counts[arch], bound)
			}
		}
	}
	if counts[pmu.Scalar] >= counts[pmu.AddWires] {
		t.Fatalf("scalar (%d) should undercount vs add-wires (%d) on a multi-lane event",
			counts[pmu.Scalar], counts[pmu.AddWires])
	}
}

func TestFenceDrainsAndRetires(t *testing.T) {
	res := run(t, large(), `
		li   t0, 500
	loop:
		addi a1, a1, 1
		fence
		addi t0, t0, -1
		bnez t0, loop
		ecall
	`)
	if res.Tally[boom.EvFenceRetired] != 500 {
		t.Fatalf("fence-retired = %d", res.Tally[boom.EvFenceRetired])
	}
}

func TestFenceIFlushesICache(t *testing.T) {
	res := run(t, large(), `
		li   t0, 50
	loop:
		addi a1, a1, 1
		fence.i
		addi t0, t0, -1
		bnez t0, loop
		ecall
	`)
	if res.Tally[boom.EvFenceRetired] != 50 {
		t.Fatalf("fence.i retired = %d", res.Tally[boom.EvFenceRetired])
	}
	if res.Tally[boom.EvICacheMiss] < 40 {
		t.Fatalf("icache misses after fence.i = %d, want ≥40", res.Tally[boom.EvICacheMiss])
	}
}

func TestStoreLoadOrderingViolationFlushes(t *testing.T) {
	// A load aliasing an in-flight older store whose address resolves
	// late: the load speculates past it and must be squashed (machine
	// clear). The divider delays the store's address computation.
	res := run(t, large(), `
		li   s0, 0x400000
		li   t0, 300
		li   t2, 17
	loop:
		div  t3, t2, t2       # t3 = 1, slowly
		slli t4, t3, 3        # = 8
		add  t4, t4, s0
		sd   t2, 0(t4)        # store to s0+8, address late
		ld   t5, 8(s0)        # aliases the store; issues first
		add  a1, a1, t5
		addi t0, t0, -1
		bnez t0, loop
		ecall
	`)
	bm := res.Tally[boom.EvBrMispredict]
	if res.Tally[boom.EvFlush] <= bm {
		t.Fatalf("no machine-clear flushes (flush %d, br %d)",
			res.Tally[boom.EvFlush], bm)
	}
	// Architectural correctness is the critical property under replay.
	if res.Exit != 0 {
		t.Fatalf("exit = %d", res.Exit)
	}
	if got := res.Insts; got < 300*8 {
		t.Fatalf("insts = %d", got)
	}
}

func TestMaxCyclesGuard(t *testing.T) {
	cfg := large()
	cfg.MaxCycles = 200
	_, err := boom.MustNew(cfg, asm.MustAssemble("loop:\n\tj loop\n")).Run()
	if err == nil {
		t.Fatal("infinite loop terminated")
	}
}

func TestRASAblationRecoversReturnResteers(t *testing.T) {
	// towers is call/return dominated: with the return-address stack the
	// frontend resteers vanish and the run gets materially faster.
	k, _ := kernel.ByName("towers")
	base := large()
	withRAS := large()
	withRAS.UseRAS = true
	resBase, bBase, err := perf.RunBoom(base, k)
	if err != nil {
		t.Fatal(err)
	}
	resRAS, bRAS, err := perf.RunBoom(withRAS, k)
	if err != nil {
		t.Fatal(err)
	}
	if resRAS.Exit != k.Expected {
		t.Fatal("RAS run computed the wrong result")
	}
	if resRAS.Cycles >= resBase.Cycles {
		t.Fatalf("RAS not faster: %d vs %d", resRAS.Cycles, resBase.Cycles)
	}
	if bRAS.PCResteer >= bBase.PCResteer {
		t.Fatalf("RAS did not cut PC resteers: %.3f vs %.3f", bRAS.PCResteer, bBase.PCResteer)
	}
	if resRAS.Tally[boom.EvCFTargetMiss] >= resBase.Tally[boom.EvCFTargetMiss] {
		t.Fatal("RAS did not reduce cf-target mispredicts")
	}
}

func TestRASDoesNotBreakNonReturnWorkloads(t *testing.T) {
	for _, name := range []string{"qsort", "500.perlbench_r"} {
		k, _ := kernel.ByName(name)
		cfg := large()
		cfg.UseRAS = true
		res, _, err := perf.RunBoom(cfg, k)
		if err != nil {
			t.Fatal(err)
		}
		if k.Expected != 0 && res.Exit != k.Expected {
			t.Fatalf("%s: wrong checksum under RAS", name)
		}
	}
}

func TestStoreForwardingAblation(t *testing.T) {
	// A tight store-then-load dependence chain: forwarding removes the
	// D$ round trip without changing the architectural result.
	src := `
		li   s0, 0x400000
		li   t0, 20000
	loop:
		addi t2, t2, 3
		sd   t2, 0(s0)
		ld   t3, 0(s0)       # same dword as the store
		add  a1, a1, t3
		addi t0, t0, -1
		bnez t0, loop
		mv   a0, a1
		ecall
	`
	base := large()
	fwd := large()
	fwd.StoreForwarding = true
	rBase := run(t, base, src)
	rFwd := run(t, fwd, src)
	if rBase.Exit != rFwd.Exit {
		t.Fatalf("forwarding changed the result: %#x vs %#x", rFwd.Exit, rBase.Exit)
	}
	if rFwd.Cycles >= rBase.Cycles {
		t.Fatalf("forwarding not faster: %d vs %d", rFwd.Cycles, rBase.Cycles)
	}
}

func TestStoreForwardingDifferential(t *testing.T) {
	// Random programs with stores and loads must stay architecturally
	// identical with forwarding enabled.
	for seed := int64(200); seed < 206; seed++ {
		prog := asm.MustAssemble(kernel.RandomProgram(seed))
		cfgA := large()
		cfgB := large()
		cfgB.StoreForwarding = true
		a, err := boom.MustNew(cfgA, prog).Run()
		if err != nil {
			t.Fatal(err)
		}
		b, err := boom.MustNew(cfgB, prog).Run()
		if err != nil {
			t.Fatal(err)
		}
		if a.Exit != b.Exit || a.Insts != b.Insts {
			t.Fatalf("seed %d: forwarding diverged", seed)
		}
	}
}
