// Skip-vs-step golden equivalence: the event-driven skip path (PR 10)
// must be bit-identical to cycle-by-cycle stepping — same cycle counts,
// same per-event tallies and lane tallies, same cache stats, same
// architectural state. These tests run the same kernel with the skip
// enabled and disabled and require reflect.DeepEqual on the whole
// Result, for Rocket and every BOOM size, plus a sampled run whose
// windows exercise the skip path inside RunWindow(maxCycles, maxInsts),
// and a chunked run whose window boundaries cap every skip. `make
// detail-smoke` runs them race-gated in CI.
package icicle_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"icicle/internal/asm"
	"icicle/internal/boom"
	"icicle/internal/kernel"
	"icicle/internal/perf"
	"icicle/internal/rocket"
	"icicle/internal/sample"
)

// detailSmokeKernels mixes stall-heavy kernels (where skipping engages
// constantly), aliasing/fence-heavy ones (replay, machine clears), and
// branch-dense ones (recovery interplay).
var detailSmokeKernels = []string{
	"vvadd", "spmv", "memcpy", "qsort", "brmiss", "fencemix", "towers",
}

func TestDetailSmokeRocketSkipEquivalence(t *testing.T) {
	anySkipped := false
	for _, name := range detailSmokeKernels {
		k, err := kernel.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prog := k.MustProgram()

		on := rocket.New(rocket.DefaultConfig(), prog)
		rOn, err := on.Run()
		if err != nil {
			t.Fatalf("%s skip-on: %v", name, err)
		}
		off := rocket.New(rocket.DefaultConfig(), prog)
		off.SetStallSkip(false)
		rOff, err := off.Run()
		if err != nil {
			t.Fatalf("%s skip-off: %v", name, err)
		}
		if !reflect.DeepEqual(rOn, rOff) {
			t.Errorf("%s: rocket skip-on result diverges from skip-off\n on: %+v\noff: %+v", name, rOn, rOff)
		}
		if on.CPU.X != off.CPU.X {
			t.Errorf("%s: rocket architectural registers diverge", name)
		}
		if sc, _ := off.SkipStats(); sc != 0 {
			t.Errorf("%s: skip-off core reports %d skipped cycles", name, sc)
		}
		if sc, _ := on.SkipStats(); sc > 0 {
			anySkipped = true
		}
	}
	if !anySkipped {
		t.Error("skip path never engaged on any smoke kernel (vacuous equivalence)")
	}
}

func TestDetailSmokeBoomSkipEquivalence(t *testing.T) {
	anySkipped := false
	for _, size := range boom.Sizes {
		for _, name := range []string{"vvadd", "spmv", "qsort", "brmiss", "fencemix"} {
			k, err := kernel.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			prog := k.MustProgram()

			on, err := boom.New(boom.NewConfig(size), prog)
			if err != nil {
				t.Fatal(err)
			}
			rOn, err := on.Run()
			if err != nil {
				t.Fatalf("%s/%s skip-on: %v", size, name, err)
			}
			off, err := boom.New(boom.NewConfig(size), prog)
			if err != nil {
				t.Fatal(err)
			}
			off.SetStallSkip(false)
			rOff, err := off.Run()
			if err != nil {
				t.Fatalf("%s/%s skip-off: %v", size, name, err)
			}
			if !reflect.DeepEqual(rOn, rOff) {
				t.Errorf("%s/%s: boom skip-on result diverges from skip-off\n on: %+v\noff: %+v", size, name, rOn, rOff)
			}
			if on.CPU.X != off.CPU.X {
				t.Errorf("%s/%s: boom architectural registers diverge", size, name)
			}
			if sc, _ := on.SkipStats(); sc > 0 {
				anySkipped = true
			}
		}
	}
	if !anySkipped {
		t.Error("skip path never engaged on any boom smoke kernel (vacuous equivalence)")
	}
}

// TestDetailSmokeResetReuse proves a warmed, Reset core with the skip
// enabled reproduces the fresh-core result bit-for-bit (the sim core
// pool depends on Reset-reuse identity; the skip state must reset too).
func TestDetailSmokeResetReuse(t *testing.T) {
	k, err := kernel.ByName("spmv")
	if err != nil {
		t.Fatal(err)
	}
	prog := k.MustProgram()

	c := rocket.New(rocket.DefaultConfig(), prog)
	first, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	c.Reset(prog)
	second, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("rocket: reset-reuse run diverges with skip enabled")
	}

	bc, err := boom.New(boom.NewConfig(boom.Large), prog)
	if err != nil {
		t.Fatal(err)
	}
	bFirst, err := bc.Run()
	if err != nil {
		t.Fatal(err)
	}
	bc.Reset(prog)
	bSecond, err := bc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bFirst, bSecond) {
		t.Error("boom: reset-reuse run diverges with skip enabled")
	}
}

// TestDetailSmokeSampledReport proves the skip path composes with the
// sampled engine: detailed windows run through RunWindow, whose
// skipLimit caps every jump at the window boundary, so the sampled
// report must be identical with and without skipping.
func TestDetailSmokeSampledReport(t *testing.T) {
	k, err := kernel.ByName("spmv")
	if err != nil {
		t.Fatal(err)
	}
	prog := k.MustProgram()
	pol := sample.Policy{Window: 1024, Period: 8192, Warmup: 2048}

	cfg := rocket.DefaultConfig()
	on := rocket.New(cfg, prog)
	resOn, repOn, bdOn, err := perf.SampleRocketOn(on, k, pol, sample.Options{})
	if err != nil {
		t.Fatal(err)
	}
	off := rocket.New(cfg, prog)
	off.SetStallSkip(false)
	resOff, repOff, bdOff, err := perf.SampleRocketOn(off, k, pol, sample.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resOn, resOff) {
		t.Errorf("sampled rocket result diverges:\n on: %+v\noff: %+v", resOn, resOff)
	}
	if !reflect.DeepEqual(repOn, repOff) {
		t.Error("sampled rocket report diverges")
	}
	if bdOn != bdOff {
		t.Errorf("sampled rocket breakdown diverges: on=%+v off=%+v", bdOn, bdOff)
	}

	bOn, err := boom.New(boom.NewConfig(boom.Large), prog)
	if err != nil {
		t.Fatal(err)
	}
	bResOn, bRepOn, bBdOn, err := perf.SampleBoomOn(bOn, k, pol, sample.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bOff, err := boom.New(boom.NewConfig(boom.Large), prog)
	if err != nil {
		t.Fatal(err)
	}
	bOff.SetStallSkip(false)
	bResOff, bRepOff, bBdOff, err := perf.SampleBoomOn(bOff, k, pol, sample.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bResOn, bResOff) {
		t.Errorf("sampled boom result diverges:\n on: %+v\noff: %+v", bResOn, bResOff)
	}
	if !reflect.DeepEqual(bRepOn, bRepOff) {
		t.Error("sampled boom report diverges")
	}
	if bBdOn != bBdOff {
		t.Errorf("sampled boom breakdown diverges: on=%+v off=%+v", bBdOn, bBdOff)
	}
}

// detailRunner is the run-loop surface both detailed cores share.
type detailRunner interface {
	RunCycles() error
	RunWindow(maxCycles, maxInsts uint64) error
	Done() bool
	Cycles() uint64
	Insts() uint64
	CopyTally(dst []uint64) []uint64
	SetStallSkip(on bool)
	SkipStats() (cycles, events uint64)
}

// TestDetailSmokeChunkedRunWindow: each core has one run loop, whatever
// its bounds. Back-to-back RunWindow(k, 0) calls until Done reproduce a
// single RunCycles exactly — cycles, instructions and dense tally — with
// skipping on and off and no window running past k cycles, and
// RunWindow(k, n) stops at exactly n retired instructions.
func TestDetailSmokeChunkedRunWindow(t *testing.T) {
	cores := []struct {
		name  string
		build func(*asm.Program) detailRunner
	}{
		{"rocket", func(p *asm.Program) detailRunner { return rocket.New(rocket.DefaultConfig(), p) }},
		{"SmallBOOM", func(p *asm.Program) detailRunner { return boom.MustNew(boom.NewConfig(boom.Small), p) }},
		{"LargeBOOM", func(p *asm.Program) detailRunner { return boom.MustNew(boom.NewConfig(boom.Large), p) }},
	}
	anySkipped := false
	for _, cc := range cores {
		for _, name := range []string{"brmiss", "fencemix"} {
			k, err := kernel.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			prog := k.MustProgram()
			for _, skip := range []bool{true, false} {
				id := fmt.Sprintf("%s/%s/skip=%v", cc.name, name, skip)
				build := func() detailRunner {
					c := cc.build(prog)
					c.SetStallSkip(skip)
					return c
				}
				ref := build()
				if err := ref.RunCycles(); err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				want := ref.CopyTally(nil)

				for _, chunk := range []uint64{1, 37, 1000} {
					c := build()
					for calls := uint64(0); !c.Done(); calls++ {
						if calls > ref.Cycles() {
							t.Fatalf("%s chunk %d: not done after %d windows", id, chunk, calls)
						}
						before := c.Cycles()
						if err := c.RunWindow(chunk, 0); err != nil {
							t.Fatalf("%s chunk %d: %v", id, chunk, err)
						}
						if ran := c.Cycles() - before; ran > chunk {
							t.Fatalf("%s chunk %d: window ran %d cycles", id, chunk, ran)
						}
					}
					if c.Cycles() != ref.Cycles() || c.Insts() != ref.Insts() {
						t.Errorf("%s chunk %d: %d cycles/%d insts, straight run %d/%d",
							id, chunk, c.Cycles(), c.Insts(), ref.Cycles(), ref.Insts())
					}
					if got := c.CopyTally(nil); !reflect.DeepEqual(got, want) {
						t.Errorf("%s chunk %d: dense tally diverges from the straight run", id, chunk)
					}
					if sc, _ := c.SkipStats(); sc > 0 {
						anySkipped = true
					}
				}

				for _, n := range []uint64{1, 5, 333} {
					c := build()
					for !c.Done() {
						before := c.Insts()
						if err := c.RunWindow(math.MaxUint64, n); err != nil {
							t.Fatalf("%s bound %d: %v", id, n, err)
						}
						if got := c.Insts() - before; got > n || (got < n && !c.Done()) {
							t.Fatalf("%s bound %d: window retired %d instructions", id, n, got)
						}
					}
					if c.Insts() != ref.Insts() {
						t.Errorf("%s bound %d: %d insts in all, straight run %d", id, n, c.Insts(), ref.Insts())
					}
				}
			}
		}
	}
	if !anySkipped {
		t.Error("skip path never engaged in a chunked run (vacuous equivalence)")
	}
}
