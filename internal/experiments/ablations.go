package experiments

import (
	"fmt"
	"io"

	"icicle/internal/boom"
	"icicle/internal/kernel"
	"icicle/internal/pmu"
	"icicle/internal/sim"
)

// WidthPoint is one point of the distributed-counter width sweep.
type WidthPoint struct {
	Width   uint
	Read    uint64
	Residue uint64
	Lost    uint64
}

// WidthSweepResult is the DESIGN.md ablation: how the distributed
// architecture's local counter width trades read-time undercount against
// correctness (undersized widths drop events outright).
type WidthSweepResult struct {
	Kernel    string
	Event     string
	Exact     uint64
	AutoWidth uint
	Points    []WidthPoint
}

// WidthSweep runs the same workload with forced local-counter widths 1..6
// (width 0 selects the automatic width and supplies the exact count). The
// forced widths require touching the PMU before Run, so the sweep fans
// out via sim.Map rather than the memoizing runner.
func WidthSweep(kernelName, event string) (WidthSweepResult, error) {
	defer phase("WidthSweep")()
	k, err := kernel.ByName(kernelName)
	if err != nil {
		return WidthSweepResult{}, err
	}
	out := WidthSweepResult{Kernel: kernelName, Event: event}
	widths := []uint{0, 1, 2, 3, 4, 5, 6}
	type widthOut struct {
		exact uint64
		auto  uint
		point WidthPoint
	}
	points, err := sim.Map(0, widths, func(_ int, width uint) (widthOut, error) {
		c, err := boom.New(boom.NewConfig(boom.Large), k.MustProgram())
		if err != nil {
			return widthOut{}, err
		}
		c.PMU.Arch = pmu.Distributed
		c.PMU.DistWidth = width
		if err := c.PMU.ConfigureEvents(0, event); err != nil {
			return widthOut{}, err
		}
		c.PMU.EnableAll()
		res, err := c.Run()
		if err != nil {
			return widthOut{}, err
		}
		if width == 0 {
			return widthOut{exact: res.Tally[event], auto: c.PMU.LocalWidth(0)}, nil
		}
		return widthOut{point: WidthPoint{
			Width:   width,
			Read:    c.PMU.Read(0),
			Residue: c.PMU.Residue(0),
			Lost:    c.PMU.Lost(0),
		}}, nil
	})
	if err != nil {
		return out, err
	}
	out.Exact = points[0].exact
	out.AutoWidth = points[0].auto
	for _, p := range points[1:] {
		out.Points = append(out.Points, p.point)
	}
	return out, nil
}

// Fprint renders the sweep.
func (w WidthSweepResult) Fprint(out io.Writer) {
	fmt.Fprintf(out, "-- ablation: distributed local-counter width (%s / %s, exact %d, auto width %d) --\n",
		w.Kernel, w.Event, w.Exact, w.AutoWidth)
	fmt.Fprintf(out, "%6s %12s %9s %7s %12s\n", "width", "read", "residue", "lost", "read-err%")
	for _, p := range w.Points {
		errPct := 100 * float64(w.Exact-p.Read) / float64(w.Exact)
		fmt.Fprintf(out, "%6d %12d %9d %7d %11.3f%%\n", p.Width, p.Read, p.Residue, p.Lost, errPct)
	}
}

// RASResult is the return-address-stack ablation on a call/return
// dominated workload.
type RASResult struct {
	Kernel             string
	BaseCycles         uint64
	RASCycles          uint64
	BasePCResteer      float64
	RASPCResteer       float64
	BaseCFTargetMisses uint64
	RASCFTargetMisses  uint64
}

// RASAblation compares LargeBOOM with and without the return-address
// stack (a two-job batch through the shared runner).
func RASAblation(kernelName string) (RASResult, error) {
	defer phase("RASAblation")()
	k, err := kernel.ByName(kernelName)
	if err != nil {
		return RASResult{}, err
	}
	base := boom.NewConfig(boom.Large)
	base.UseRAS = false
	ras := boom.NewConfig(boom.Large)
	ras.UseRAS = true
	results := sim.Default().Run([]sim.Job{sim.BoomJob(base, k), sim.BoomJob(ras, k)})
	out := RASResult{Kernel: kernelName}
	for i, res := range results {
		if res.Err != nil {
			return out, res.Err
		}
		if i == 1 {
			out.RASCycles = res.Boom.Cycles
			out.RASPCResteer = res.Breakdown.PCResteer
			out.RASCFTargetMisses = res.Boom.Tally[boom.EvCFTargetMiss]
		} else {
			out.BaseCycles = res.Boom.Cycles
			out.BasePCResteer = res.Breakdown.PCResteer
			out.BaseCFTargetMisses = res.Boom.Tally[boom.EvCFTargetMiss]
		}
	}
	return out, nil
}

// Fprint renders the ablation.
func (r RASResult) Fprint(w io.Writer) {
	fmt.Fprintf(w, "-- ablation: return-address stack on %s (LargeBOOM) --\n", r.Kernel)
	fmt.Fprintf(w, "%-8s cycles %9d  pc-resteer %5.1f%%  cf-target-misses %d\n",
		"no-RAS", r.BaseCycles, r.BasePCResteer*100, r.BaseCFTargetMisses)
	fmt.Fprintf(w, "%-8s cycles %9d  pc-resteer %5.1f%%  cf-target-misses %d\n",
		"RAS", r.RASCycles, r.RASPCResteer*100, r.RASCFTargetMisses)
	fmt.Fprintf(w, "speedup: %.1f%%\n", (float64(r.BaseCycles)/float64(r.RASCycles)-1)*100)
}
