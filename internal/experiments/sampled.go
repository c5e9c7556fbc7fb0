package experiments

import (
	"fmt"
	"io"

	"icicle/internal/boom"
	"icicle/internal/core"
	"icicle/internal/kernel"
	"icicle/internal/rocket"
	"icicle/internal/sample"
	"icicle/internal/sim"
)

// SampledRow is one (core, kernel) pair evaluated both full-detail and
// sampled, with the estimation errors the comparison exposes.
type SampledRow struct {
	Core   string
	Kernel string

	FullCycles uint64
	EstCycles  uint64
	Insts      uint64

	Full    core.Breakdown
	Sampled core.Breakdown

	Coverage float64
	Windows  int
	CPICI    sample.Interval
}

// CycleErr returns the relative cycle-estimate error.
func (r SampledRow) CycleErr() float64 {
	if r.FullCycles == 0 {
		return 0
	}
	d := float64(r.EstCycles) - float64(r.FullCycles)
	if d < 0 {
		d = -d
	}
	return d / float64(r.FullCycles)
}

// MaxCategoryErr returns the worst absolute top-level share difference.
func (r SampledRow) MaxCategoryErr() float64 { return r.Sampled.MaxTopLevelDiff(r.Full) }

// SampledComparison is the sampled-vs-full validation artifact: the same
// job matrix submitted to the shared runner twice — once full-detail,
// once under the sampling policy — so both detail modes coexist in the
// memo cache and the table reports how close the extrapolation lands.
type SampledComparison struct {
	Policy sample.Policy
	Rows   []SampledRow
}

// Fprint renders the comparison table.
func (sc SampledComparison) Fprint(w io.Writer) {
	fmt.Fprintf(w, "-- Sampled vs full-detail TMA (policy %s) --\n", sc.Policy)
	for _, r := range sc.Rows {
		fmt.Fprintf(w, "%-9s %-10s cycles %8d est %8d (%5.2f%% err)  maxCat %5.2fpp  cov %5.1f%%  windows %d\n",
			r.Core, r.Kernel, r.FullCycles, r.EstCycles, 100*r.CycleErr(),
			100*r.MaxCategoryErr(), 100*r.Coverage, r.Windows)
		fmt.Fprintf(w, "  full    %s\n", r.Full.Row(r.Kernel))
		fmt.Fprintf(w, "  sampled %s\n", r.Sampled.Row(r.Kernel))
	}
}

// Find returns the row for (coreName, kernelName).
func (sc SampledComparison) Find(coreName, kernelName string) (SampledRow, bool) {
	for _, r := range sc.Rows {
		if r.Core == coreName && r.Kernel == kernelName {
			return r, true
		}
	}
	return SampledRow{}, false
}

// SampledVsFull runs the long-running microbenchmarks full-detail and
// sampled (at the default policy) on Rocket and LargeBOOM through the
// shared runner, pairing the results into the validation table.
func SampledVsFull() (SampledComparison, error) {
	return SampledVsFullPolicy(sample.Default())
}

// SampledVsFullPolicy is SampledVsFull under an explicit policy.
func SampledVsFullPolicy(p sample.Policy) (SampledComparison, error) {
	defer phase("SampledVsFull")()
	names := []string{"towers", "mm", "bfs"}
	large := boom.NewConfig(boom.Large)

	var jobs []sim.Job
	for _, name := range names {
		k, err := kernel.ByName(name)
		if err != nil {
			return SampledComparison{}, err
		}
		rj := sim.RocketJob(rocket.DefaultConfig(), k)
		bj := sim.BoomJob(large, k)
		// Interleave full and sampled variants of the same (core,
		// kernel): distinct memo keys keep them from colliding.
		jobs = append(jobs, rj, rj.WithSampling(p), bj, bj.WithSampling(p))
	}

	results := sim.Default().Run(jobs)
	sc := SampledComparison{Policy: p}
	for i := 0; i < len(results); i += 2 {
		full, sampled := results[i], results[i+1]
		if full.Err != nil {
			return SampledComparison{}, full.Err
		}
		if sampled.Err != nil {
			return SampledComparison{}, sampled.Err
		}
		rep := sampled.Sampled
		if rep == nil {
			return SampledComparison{}, fmt.Errorf("sampled job %s returned no report", sampled.Job.Key())
		}
		if rep.TotalInsts != full.Insts() || rep.Exit != full.Exit() || !rep.Halted {
			return SampledComparison{}, fmt.Errorf("%s/%s: sampled retired %d insts (exit %#x, halted %v), full %d (exit %#x)",
				sampled.Job.CoreName(), sampled.Job.Kernel.Name, rep.TotalInsts, rep.Exit, rep.Halted, full.Insts(), full.Exit())
		}
		sc.Rows = append(sc.Rows, SampledRow{
			Core:       full.Job.CoreName(),
			Kernel:     full.Job.Kernel.Name,
			FullCycles: full.Cycles(),
			EstCycles:  rep.EstCycles,
			Insts:      full.Insts(),
			Full:       full.Breakdown,
			Sampled:    sampled.Breakdown,
			Coverage:   rep.Coverage,
			Windows:    len(rep.Windows),
			CPICI:      rep.CPICI,
		})
	}
	return sc, nil
}
