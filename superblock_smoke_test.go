// Superblock engine smoke: differential runs of real kernels through the
// superblock threaded-code engine against the plain Step loop, asserting
// bit-identical architectural results, plus end-to-end sampled runs with
// the engine toggled to pin that every report byte is engine-independent.
// Randomized self-modifying coverage lives in
// internal/check.FuzzSuperblockDifferential; the engine itself is in
// internal/isa/superblock.go. This is what `make superblock-smoke` (part
// of `make ci`) runs, under the race detector.
package icicle_test

import (
	"testing"

	"icicle/internal/asm"
	"icicle/internal/boom"
	"icicle/internal/isa"
	"icicle/internal/kernel"
	"icicle/internal/mem"
	"icicle/internal/obs"
	"icicle/internal/perf"
	"icicle/internal/rocket"
	"icicle/internal/sample"
)

// TestSuperblockSmokeKernels runs each kernel to completion on both
// functional engines and compares every architectural observable:
// registers, PC, instruction count, exit status, and the full memory
// image. The superblock run must also actually exercise the block cache
// (hits and translations), or the smoke would pass vacuously with the
// engine disabled.
func TestSuperblockSmokeKernels(t *testing.T) {
	const budget = 50_000_000
	for _, name := range []string{"towers", "qsort", "vvadd", "spmv", "fencemix"} {
		t.Run(name, func(t *testing.T) {
			k, err := kernel.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := k.Program()
			if err != nil {
				t.Fatal(err)
			}
			run := func(on bool) (*isa.CPU, *mem.Sparse) {
				m := mem.NewSparse()
				prog.LoadInto(m)
				c := isa.NewCPU(m, prog.Entry)
				c.SetSuperblocks(on)
				if _, err := c.Run(budget); err != nil {
					t.Fatalf("superblocks=%v: %v", on, err)
				}
				return c, m
			}
			sb, sbMem := run(true)
			ref, refMem := run(false)
			if !sb.Halted {
				t.Fatal("kernel did not halt within budget")
			}
			if sb.X != ref.X || sb.PC != ref.PC || sb.InstRet != ref.InstRet ||
				sb.Halted != ref.Halted || sb.ExitCode != ref.ExitCode {
				t.Errorf("architectural state diverges: pc %#x/%#x instret %d/%d exit %d/%d",
					sb.PC, ref.PC, sb.InstRet, ref.InstRet, sb.ExitCode, ref.ExitCode)
			}
			if sbMem.Checksum() != refMem.Checksum() {
				t.Error("memory image diverges")
			}
			st := sb.SuperblockStats()
			if st.Translations == 0 || st.Hits == 0 {
				t.Errorf("superblock cache unused (translations %d, hits %d)", st.Translations, st.Hits)
			}
		})
	}
}

// TestSuperblockSmokeSampledIdentical runs the same sampled simulation
// with the superblock engine on and off and requires the reports to be
// bit-identical: the engine is a pure speed optimization, invisible to
// every downstream consumer (which is also why it does not appear in the
// simulation memo key — see internal/sim).
func TestSuperblockSmokeSampledIdentical(t *testing.T) {
	defer func(old bool) { isa.DefaultSuperblocks = old }(isa.DefaultSuperblocks)
	k, err := kernel.ByName("towers")
	if err != nil {
		t.Fatal(err)
	}
	p := sample.Default()

	isa.DefaultSuperblocks = true
	resOn, repOn, bOn, err := perf.SampleRocket(rocket.DefaultConfig(), k, p)
	if err != nil {
		t.Fatal(err)
	}
	isa.DefaultSuperblocks = false
	resOff, repOff, bOff, err := perf.SampleRocket(rocket.DefaultConfig(), k, p)
	if err != nil {
		t.Fatal(err)
	}

	sameSampleReport(t, "towers", repOn, repOff)
	if repOn.EstCycles != repOff.EstCycles || repOn.CPI != repOff.CPI {
		t.Errorf("estimate diverges: cycles %d/%d CPI %v/%v",
			repOn.EstCycles, repOff.EstCycles, repOn.CPI, repOff.CPI)
	}
	if bOn != bOff {
		t.Errorf("TMA breakdown diverges across engines:\n on: %v\noff: %v", bOn, bOff)
	}
	for name, on := range resOn.Tally {
		if off := resOff.Tally[name]; on != off {
			t.Errorf("event %s diverges: %d vs %d", name, on, off)
		}
	}
}

// sbTranslationBound caps the superblock translations of one functional
// run of 500.perlbench_r. Its hot code spans a few hundred 64-instruction
// aligned blocks; a slot index that lets them collide, or block ends that
// depend on where RunFor entered the code, retranslates thousands.
const sbTranslationBound = 400

// TestSuperblockSmokeTranslationBound pins the block cache against
// thrashing on a large-footprint kernel, for a plain run and for one cut
// into 8192-instruction RunFor calls (how the plan producer and the
// sampled engines drive it), and checks that the plan producer's span
// reports its translations.
func TestSuperblockSmokeTranslationBound(t *testing.T) {
	k, err := kernel.ByName("500.perlbench_r")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := k.Program()
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []uint64{0, 8192} {
		m := mem.NewSparse()
		prog.LoadInto(m)
		c := isa.NewCPU(m, prog.Entry)
		c.SetSuperblocks(true)
		for !c.Halted {
			n := uint64(50_000_000)
			if chunk > 0 {
				n = chunk
			}
			if _, err := c.RunFor(n); err != nil {
				t.Fatal(err)
			}
		}
		if tr := c.SuperblockStats().Translations; tr > sbTranslationBound {
			t.Errorf("RunFor chunk %d: %d translations, bound %d", chunk, tr, sbTranslationBound)
		}
	}

	m := mem.NewSparse()
	prog.LoadInto(m)
	c := isa.NewCPU(m, prog.Entry)
	c.SetSuperblocks(true)
	tr := obs.NewTracer()
	p := sample.Policy{Window: 2048, Period: 24576, Warmup: 16384}
	if _, err := sample.BuildPlan(c, m, p, sample.Options{Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	spans := spanArgs(t, tr, "plan-produce")
	if len(spans) != 1 {
		t.Fatalf("%d plan-produce spans, want 1", len(spans))
	}
	got, ok := spans[0]["translations"]
	if want := c.SuperblockStats().Translations; !ok || got != float64(want) {
		t.Errorf("plan-produce translations arg = %v (present %v), want %d", got, ok, want)
	}
	if got > sbTranslationBound {
		t.Errorf("plan build: %v translations, bound %d", got, sbTranslationBound)
	}
}

// TestSuperblockSmokeWarmReplay replays a plan's warm spans on Rocket and
// LargeBOOM with the superblock engine on and off, through the plan
// engine's own Exec, and compares the warmed state after every window:
// registers, cache and TLB statistics, a branch-predictor probe over the
// kernel's text, and the window's result. Windows last one cycle, so
// almost all of the work is the warm replay.
func TestSuperblockSmokeWarmReplay(t *testing.T) {
	k, err := kernel.ByName("500.perlbench_r")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := k.Program()
	if err != nil {
		t.Fatal(err)
	}
	p := sample.Policy{Window: 1, Period: 24576, Warmup: 16384}
	plan, err := perf.PlanFor(k, p, sample.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cores := []struct {
		name   string
		target func(sb bool) sample.Target
	}{
		{"rocket", func(sb bool) sample.Target {
			c := rocket.New(rocket.DefaultConfig(), prog)
			c.CPU.SetSuperblocks(sb)
			return sample.Target{Core: c, CPU: c.CPU, Hier: c.Hier, Pred: c.Pred, Mem: c.Memory()}
		}},
		{"boom-large", func(sb bool) sample.Target {
			c, err := boom.New(boom.NewConfig(boom.Large), prog)
			if err != nil {
				t.Fatal(err)
			}
			c.CPU.SetSuperblocks(sb)
			return sample.Target{Core: c, CPU: c.CPU, Hier: c.Hier, Pred: c.Pred, Mem: c.Memory()}
		}},
	}
	for _, core := range cores {
		t.Run(core.name, func(t *testing.T) {
			on, off := core.target(true), core.target(false)
			exOn, err := sample.NewExec(plan, on, p.Window)
			if err != nil {
				t.Fatal(err)
			}
			exOff, err := sample.NewExec(plan, off, p.Window)
			if err != nil {
				t.Fatal(err)
			}
			o := &sample.Options{}
			for i := range plan.Specs {
				wOn, err := exOn.Window(i, o)
				if err != nil {
					t.Fatal(err)
				}
				wOff, err := exOff.Window(i, o)
				if err != nil {
					t.Fatal(err)
				}
				if wOn.Cycles != wOff.Cycles || wOn.Insts != wOff.Insts {
					t.Fatalf("window %d: %d cycles / %d insts with superblocks, %d / %d without",
						i, wOn.Cycles, wOn.Insts, wOff.Cycles, wOff.Insts)
				}
				sameWarmState(t, i, prog, on, off)
			}
			if st := on.CPU.SuperblockStats(); st.Hits == 0 {
				t.Error("superblock engine unused during warm replay; the comparison is vacuous")
			}
		})
	}
}

// sameWarmState compares everything functional warming trains.
func sameWarmState(t *testing.T, window int, prog *asm.Program, a, b sample.Target) {
	t.Helper()
	if a.CPU.X != b.CPU.X || a.CPU.PC != b.CPU.PC || a.CPU.InstRet != b.CPU.InstRet {
		t.Fatalf("window %d: architectural state diverges (pc %#x/%#x, instret %d/%d)",
			window, a.CPU.PC, b.CPU.PC, a.CPU.InstRet, b.CPU.InstRet)
	}
	ha, hb := a.Hier, b.Hier
	if ha.L1I.Stats() != hb.L1I.Stats() || ha.L1D.Stats() != hb.L1D.Stats() || ha.L2.Stats() != hb.L2.Stats() {
		t.Fatalf("window %d: cache stats diverge", window)
	}
	for _, pair := range [][2]*mem.TLB{{ha.ITLB, hb.ITLB}, {ha.DTLB, hb.DTLB}, {ha.L2TLB, hb.L2TLB}} {
		if pair[0].Accesses != pair[1].Accesses || pair[0].Misses != pair[1].Misses {
			t.Fatalf("window %d: TLB stats diverge", window)
		}
	}
	for pc := prog.Entry; pc < prog.Entry+uint64(prog.TextSize); pc += isa.InstBytes {
		ta, oka := a.Pred.PredictTarget(pc)
		tb, okb := b.Pred.PredictTarget(pc)
		if a.Pred.PredictBranch(pc) != b.Pred.PredictBranch(pc) || ta != tb || oka != okb {
			t.Fatalf("window %d: predictor diverges at pc %#x", window, pc)
		}
	}
	// Dirty lines only show when they are evicted: stream a cache-sized
	// region no kernel touches through each cache, which evicts every
	// line, and compare the writebacks that forces. The next window's
	// BeginWindow resets the hierarchy anyway.
	const unused = uint64(1) << 40
	for _, pair := range [][2]*mem.Cache{{ha.L1I, hb.L1I}, {ha.L1D, hb.L1D}, {ha.L2, hb.L2}} {
		end := unused + uint64(pair[0].Config().SizeBytes)
		for addr := unused; addr < end; addr += 1 << pair[0].BlockShift() {
			pair[0].Access(addr, false)
			pair[1].Access(addr, false)
		}
		if pair[0].Stats() != pair[1].Stats() {
			t.Fatalf("window %d: %s dirty lines diverge: %+v vs %+v",
				window, pair[0].Config().Name, pair[0].Stats(), pair[1].Stats())
		}
	}
}
