package experiments

import (
	"bytes"
	"fmt"
	"io"
	"math"

	"icicle/internal/boom"
	"icicle/internal/kernel"
	"icicle/internal/pmu"
	"icicle/internal/sim"
	"icicle/internal/trace"
)

// Table5Benchmarks are the workloads reported in Table V.
var Table5Benchmarks = []string{
	"505.mcf_r", "523.xalancbmk_r", "541.leela_r", "525.x264_r",
	"548.exchange2_r", "500.perlbench_r", "mm", "memcpy",
}

// LaneRates is one benchmark's per-lane event rates (events per cycle).
type LaneRates struct {
	Name        string
	FetchBubble []float64 // W_C lanes
	DBlocked    []float64 // W_C lanes
	UopsIssued  []float64 // W_I lanes

	// ApproxError is the relative Frontend-class error of the paper's
	// lightweight per-lane approximation: W_C × the middle lane's bubbles
	// instead of the true per-lane sum (§V-A "3 × Fetch-bubble1").
	ApproxError float64
}

// Table5Result is the per-lane event study (Table V + the §V-A
// approximation analysis).
type Table5Result struct {
	Config string
	Rows   []LaneRates
}

// Table5PerLane measures per-lane event rates on LargeBOOM. The eight
// benchmarks run as one batch through the shared runner.
func Table5PerLane() (Table5Result, error) {
	defer phase("Table5PerLane")()
	cfg := boom.NewConfig(boom.Large)
	out := Table5Result{Config: cfg.Name}
	jobs := make([]sim.Job, 0, len(Table5Benchmarks))
	for _, name := range Table5Benchmarks {
		k, err := kernel.ByName(name)
		if err != nil {
			return out, err
		}
		jobs = append(jobs, sim.BoomJob(cfg, k))
	}
	for _, res := range sim.Default().Run(jobs) {
		if res.Err != nil {
			return out, fmt.Errorf("%s: %w", res.Job.Kernel.Name, res.Err)
		}
		br := res.Boom
		rates := func(ev string) []float64 {
			lanes := br.LaneTally[ev]
			r := make([]float64, len(lanes))
			for i, v := range lanes {
				r[i] = float64(v) / float64(br.Cycles)
			}
			return r
		}
		lr := LaneRates{
			Name:        res.Job.Kernel.Name,
			FetchBubble: rates(boom.EvFetchBubbles),
			DBlocked:    rates(boom.EvDCacheBlocked),
			UopsIssued:  rates(boom.EvUopsIssued),
		}
		total := br.Tally[boom.EvFetchBubbles]
		mid := br.LaneTally[boom.EvFetchBubbles][cfg.DecodeWidth/2]
		approx := float64(cfg.DecodeWidth) * float64(mid)
		if total > 0 {
			lr.ApproxError = approx/float64(total) - 1
		}
		out.Rows = append(out.Rows, lr)
	}
	return out, nil
}

// Fprint renders Table V.
func (t Table5Result) Fprint(w io.Writer) {
	fmt.Fprintf(w, "-- Table V: per-lane events per total cycles (%s) --\n", t.Config)
	fmt.Fprintf(w, "%-18s %-26s %-26s %-38s %8s\n",
		"benchmark", "fetch-bubble", "d$-blocked", "uops-issued", "approx")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-18s %-26s %-26s %-38s %7.1f%%\n",
			r.Name, rateStr(r.FetchBubble), rateStr(r.DBlocked),
			rateStr(r.UopsIssued), r.ApproxError*100)
	}
}

func rateStr(r []float64) string {
	var b bytes.Buffer
	for i, v := range r {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.3f", v)
	}
	return b.String()
}

// Table6Benchmarks feed the temporal-TMA overlap study.
var Table6Benchmarks = []string{"qsort", "mergesort", "531.deepsjeng_r", "multiply", "coremark", "fencemix"}

// Table6Result is the temporal-TMA class-overlap bound (Table VI).
type Table6Result struct {
	Cycles        uint64
	TotalSlots    uint64
	OverlapSlots  uint64
	FrontendSlots uint64
	BadSpecSlots  uint64 // recovering cycles × W_C (the model's attribution)

	OverlapFrac          float64
	FrontendFrac         float64
	BadSpecFrac          float64
	FrontendPerturbation float64
	BadSpecPerturbation  float64
}

// Fprint renders Table VI.
func (t Table6Result) Fprint(w io.Writer) {
	fmt.Fprintln(w, "-- Table VI: temporal TMA overlap upper bound --")
	fmt.Fprintf(w, "trace sample: %d cycles (%d slots)\n", t.Cycles, t.TotalSlots)
	fmt.Fprintf(w, "overlap Frontend, I$-miss & Bad Speculation  %8.4f%%\n", t.OverlapFrac*100)
	fmt.Fprintf(w, "Frontend        %8.2f%%  ± %.2f%%\n", t.FrontendFrac*100, t.FrontendPerturbation*100)
	fmt.Fprintf(w, "Bad Speculation %8.2f%%  ± %.2f%%\n", t.BadSpecFrac*100, t.BadSpecPerturbation*100)
}

// overlapPart is one benchmark's contribution to Table VI.
type overlapPart struct {
	cycles, total, overlap, frontend, badSpec uint64
}

// Table6Overlap traces the Table VI benchmarks on LargeBOOM and bounds
// Frontend / Bad Speculation overlap with a ±pad-cycle rolling window
// (§V-B uses 50). Traced runs need a cycle hook, so they bypass the memo
// cache and fan out via sim.Map instead; partial sums are accumulated in
// benchmark order.
func Table6Overlap(pad int) (Table6Result, error) {
	defer phase("Table6Overlap")()
	cfg := boom.NewConfig(boom.Large)
	var out Table6Result
	parts, err := sim.Map(0, Table6Benchmarks, func(_ int, name string) (overlapPart, error) {
		k, err := kernel.ByName(name)
		if err != nil {
			return overlapPart{}, err
		}
		c, err := boom.New(cfg, k.MustProgram())
		if err != nil {
			return overlapPart{}, err
		}
		bundle := trace.MustBundle(c.Space,
			boom.EvFetchBubbles, boom.EvICacheBlocked, boom.EvRecovering)
		var buf bytes.Buffer
		w, err := trace.NewWriter(&buf, bundle)
		if err != nil {
			return overlapPart{}, err
		}
		c.SetCycleHook(w.WriteCycle)
		if _, err := c.Run(); err != nil {
			return overlapPart{}, err
		}
		if err := w.Flush(); err != nil {
			return overlapPart{}, err
		}
		rd, err := trace.NewReader(&buf)
		if err != nil {
			return overlapPart{}, err
		}
		a, err := trace.NewAnalyzer(rd)
		if err != nil {
			return overlapPart{}, err
		}
		rep, err := a.OverlapBound(boom.EvFetchBubbles, boom.EvICacheBlocked,
			boom.EvRecovering, pad)
		if err != nil {
			return overlapPart{}, err
		}
		return overlapPart{
			cycles:   uint64(rep.Cycles),
			total:    rep.TotalSlots,
			overlap:  rep.OverlapSlots,
			frontend: rep.FrontendSlots,
			badSpec:  a.Totals()[boom.EvRecovering] * uint64(cfg.DecodeWidth),
		}, nil
	})
	if err != nil {
		return out, err
	}
	for _, p := range parts {
		out.Cycles += p.cycles
		out.TotalSlots += p.total
		out.OverlapSlots += p.overlap
		out.FrontendSlots += p.frontend
		out.BadSpecSlots += p.badSpec
	}
	if out.TotalSlots > 0 {
		out.OverlapFrac = float64(out.OverlapSlots) / float64(out.TotalSlots)
		out.FrontendFrac = float64(out.FrontendSlots) / float64(out.TotalSlots)
		out.BadSpecFrac = float64(out.BadSpecSlots) / float64(out.TotalSlots)
	}
	if out.FrontendSlots > 0 {
		out.FrontendPerturbation = float64(out.OverlapSlots) / float64(out.FrontendSlots)
	}
	if out.BadSpecSlots > 0 {
		out.BadSpecPerturbation = float64(out.OverlapSlots) / float64(out.BadSpecSlots)
	}
	return out, nil
}

// UndercountResult is the §IV-B distributed-counter undercount study
// (experiment E15).
type UndercountResult struct {
	Kernel     string
	Event      string
	Exact      uint64
	Read       uint64
	Residue    uint64
	Bound      uint64 // sources × 2^width
	LocalWidth uint
}

// Fprint renders the undercount analysis.
func (u UndercountResult) Fprint(w io.Writer) {
	fmt.Fprintln(w, "-- §IV-B: distributed-counter undercount bound --")
	fmt.Fprintf(w, "%s/%s: exact %d, read %d, residue %d (bound %d, local width %d bits)\n",
		u.Kernel, u.Event, u.Exact, u.Read, u.Residue, u.Bound, u.LocalWidth)
	if u.Exact > 0 {
		fmt.Fprintf(w, "worst-case relative error: %.4f%%\n",
			100*float64(u.Bound)/float64(u.Exact+u.Bound))
	}
}

// UndercountBound measures the distributed architecture's undercount on a
// real workload and checks it against the closed-form bound.
func UndercountBound(kernelName string) (UndercountResult, error) {
	defer phase("UndercountBound")()
	k, err := kernel.ByName(kernelName)
	if err != nil {
		return UndercountResult{}, err
	}
	cfg := boom.NewConfig(boom.Large)
	c, err := boom.New(cfg, k.MustProgram())
	if err != nil {
		return UndercountResult{}, err
	}
	c.PMU.Arch = pmu.Distributed
	if err := c.PMU.ConfigureEvents(0, boom.EvFetchBubbles); err != nil {
		return UndercountResult{}, err
	}
	c.PMU.EnableAll()
	res, err := c.Run()
	if err != nil {
		return UndercountResult{}, err
	}
	u := UndercountResult{
		Kernel:     kernelName,
		Event:      boom.EvFetchBubbles,
		Exact:      res.Tally[boom.EvFetchBubbles],
		Read:       c.PMU.Read(0),
		Residue:    c.PMU.Residue(0),
		LocalWidth: c.PMU.LocalWidth(0),
	}
	u.Bound = uint64(cfg.DecodeWidth) << u.LocalWidth
	if u.Read+u.Residue != u.Exact {
		return u, fmt.Errorf("undercount conservation violated: %d + %d != %d",
			u.Read, u.Residue, u.Exact)
	}
	return u, nil
}

// ArchComparison is the artifact's AddWires vs DistributedCounters counter
// value comparison (E16).
type ArchComparison struct {
	Kernel string
	Event  string
	Exact  map[pmu.Architecture]uint64 // read + residue
	Read   map[pmu.Architecture]uint64
}

// CounterArchComparison runs the same kernel under all three counter
// architectures (in parallel — each needs its own PMU configuration, so
// the runs go through sim.Map rather than the memoizing runner) and
// compares the counter values.
func CounterArchComparison(kernelName, event string) (ArchComparison, error) {
	defer phase("CounterArchComparison")()
	k, err := kernel.ByName(kernelName)
	if err != nil {
		return ArchComparison{}, err
	}
	out := ArchComparison{
		Kernel: kernelName, Event: event,
		Exact: map[pmu.Architecture]uint64{},
		Read:  map[pmu.Architecture]uint64{},
	}
	archs := []pmu.Architecture{pmu.Scalar, pmu.AddWires, pmu.Distributed}
	type archCounts struct{ read, exact uint64 }
	counts, err := sim.Map(0, archs, func(_ int, arch pmu.Architecture) (archCounts, error) {
		c, err := boom.New(boom.NewConfig(boom.Large), k.MustProgram())
		if err != nil {
			return archCounts{}, err
		}
		c.PMU.Arch = arch
		if err := c.PMU.ConfigureEvents(0, event); err != nil {
			return archCounts{}, err
		}
		c.PMU.EnableAll()
		if _, err := c.Run(); err != nil {
			return archCounts{}, err
		}
		return archCounts{read: c.PMU.Read(0), exact: c.PMU.Read(0) + c.PMU.Residue(0)}, nil
	})
	if err != nil {
		return out, err
	}
	for i, arch := range archs {
		out.Read[arch] = counts[i].read
		out.Exact[arch] = counts[i].exact
	}
	return out, nil
}

// Fprint renders the comparison.
func (a ArchComparison) Fprint(w io.Writer) {
	fmt.Fprintf(w, "-- counter architecture comparison: %s / %s --\n", a.Kernel, a.Event)
	for _, arch := range []pmu.Architecture{pmu.Scalar, pmu.AddWires, pmu.Distributed} {
		fmt.Fprintf(w, "%-12s read %12d\n", arch, a.Read[arch])
	}
	aw := float64(a.Read[pmu.AddWires])
	if aw > 0 {
		fmt.Fprintf(w, "distributed relative error: %.4f%%\n",
			100*math.Abs(aw-float64(a.Read[pmu.Distributed]))/aw)
		fmt.Fprintf(w, "scalar undercount:          %.1f%%\n",
			100*(1-float64(a.Read[pmu.Scalar])/aw))
	}
}
