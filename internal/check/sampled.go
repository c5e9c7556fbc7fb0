package check

import (
	"fmt"
	"math"

	"icicle/internal/boom"
	"icicle/internal/core"
	"icicle/internal/kernel"
	"icicle/internal/perf"
	"icicle/internal/rocket"
	"icicle/internal/sample"
)

// SampledDiff is one sampled-vs-full differential: the same kernel on the
// same core config, run once cycle-accurately end to end and once under
// the sampling policy, with per-category TMA share errors.
type SampledDiff struct {
	Core   string
	Kernel string
	Policy sample.Policy

	FullCycles uint64
	EstCycles  uint64
	FullInsts  uint64
	Insts      uint64 // sampled TotalInsts (architectural; must equal FullInsts)
	FullExit   uint64
	Exit       uint64

	Full    core.Breakdown
	Sampled core.Breakdown
	Report  *sample.Report

	// CycleErr is the relative cycle-count error |est−full|/full.
	CycleErr float64
}

// MaxTopLevelErr returns the worst absolute top-level share error.
func (d SampledDiff) MaxTopLevelErr() float64 { return d.Sampled.MaxTopLevelDiff(d.Full) }

// Check validates the invariants every sampled run must satisfy
// regardless of accuracy: exact architectural instruction and exit
// totals, and a halted program.
func (d SampledDiff) Check() error {
	if d.Insts != d.FullInsts {
		return fmt.Errorf("%s/%s: sampled retired %d insts, full %d — the architectural stream diverged",
			d.Core, d.Kernel, d.Insts, d.FullInsts)
	}
	if d.Exit != d.FullExit {
		return fmt.Errorf("%s/%s: sampled exit %#x, full %#x",
			d.Core, d.Kernel, d.Exit, d.FullExit)
	}
	if d.Report == nil || !d.Report.Halted {
		return fmt.Errorf("%s/%s: sampled run did not halt", d.Core, d.Kernel)
	}
	return nil
}

func (d SampledDiff) String() string {
	return fmt.Sprintf("%s/%s %s: cycles %d vs %d (%.2f%% err), max category err %.2fpp, coverage %.1f%%",
		d.Core, d.Kernel, d.Policy, d.EstCycles, d.FullCycles, 100*d.CycleErr,
		100*d.MaxTopLevelErr(), 100*d.Report.Coverage)
}

func diffFrom(coreName, kernelName string, p sample.Policy,
	fullCycles, fullInsts, fullExit uint64, full core.Breakdown,
	rep *sample.Report) SampledDiff {
	d := SampledDiff{
		Core: coreName, Kernel: kernelName, Policy: p,
		FullCycles: fullCycles, EstCycles: rep.EstCycles,
		FullInsts: fullInsts, Insts: rep.TotalInsts,
		FullExit: fullExit, Exit: rep.Exit,
		Full: full, Sampled: rep.Breakdown, Report: rep,
	}
	if fullCycles > 0 {
		d.CycleErr = math.Abs(float64(rep.EstCycles)-float64(fullCycles)) / float64(fullCycles)
	}
	return d
}

// CompareSampledRocket runs the kernel on Rocket both ways and returns
// the differential.
func CompareSampledRocket(cfg rocket.Config, k *kernel.Kernel, p sample.Policy) (SampledDiff, error) {
	full, fb, err := perf.RunRocket(cfg, k)
	if err != nil {
		return SampledDiff{}, fmt.Errorf("full rocket run: %w", err)
	}
	_, rep, _, err := perf.SampleRocket(cfg, k, p)
	if err != nil {
		return SampledDiff{}, fmt.Errorf("sampled rocket run: %w", err)
	}
	d := diffFrom("rocket", k.Name, p, full.Cycles, full.Insts, full.Exit, fb, rep)
	return d, d.Check()
}

// CompareSampledBoom runs the kernel on the BOOM config both ways and
// returns the differential.
func CompareSampledBoom(cfg boom.Config, k *kernel.Kernel, p sample.Policy) (SampledDiff, error) {
	full, fb, err := perf.RunBoom(cfg, k)
	if err != nil {
		return SampledDiff{}, fmt.Errorf("full boom run: %w", err)
	}
	_, rep, _, err := perf.SampleBoom(cfg, k, p)
	if err != nil {
		return SampledDiff{}, fmt.Errorf("sampled boom run: %w", err)
	}
	d := diffFrom(cfg.Name, k.Name, p, full.Cycles, full.Insts, full.Exit, fb, rep)
	return d, d.Check()
}
