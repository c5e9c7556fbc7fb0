package experiments

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"icicle/internal/boom"
	"icicle/internal/core"
	"icicle/internal/pmu"
	"icicle/internal/rocket"
	"icicle/internal/sample"
	"icicle/internal/vlsi"
)

// Claim is one claim of the paper's evaluation, stated once: the paper's
// value, one measured quantity with its definition, and the predicate
// the quantity must satisfy. TestPaperClaims asserts every claim, and the
// EXPERIMENTS.md claim tables are rendered from the same values
// (icicle-bench -only claims).
type Claim struct {
	ID       string // stable identifier, e.g. "fig7n-slowdown"
	Anchor   string // where the paper makes the claim
	Text     string // the claim
	Paper    string // the paper's value, as text
	Quantity string // the measured quantity and its definition
	Unit     Unit
	Pred     Pred
	read     reader
}

// Artifact names the icicle-bench artifact whose result the claim reads.
func (c Claim) Artifact() string { return c.read.artifact }

// reader evaluates a claim's quantity on one artifact's result.
type reader struct {
	artifact string
	run      func() (any, error)
	measure  func(any) float64
}

// artifact binds an icicle-bench artifact name to the function that
// produces its result, returning a constructor for readers of it.
func artifact[R any](name string, run func() (R, error)) func(func(R) float64) reader {
	runAny := func() (any, error) { return run() }
	return func(measure func(R) float64) reader {
		return reader{name, runAny, func(r any) float64 { return measure(r.(R)) }}
	}
}

// The artifacts the claims read, with the arguments icicle-bench uses.
var (
	fig3    = artifact("fig3", Fig3FrontendTrace)
	fig7a   = artifact("fig7a", Fig7aRocketMicro)
	fig7c   = artifact("fig7c", Fig7cCacheStudy)
	fig7d   = artifact("fig7d", Fig7dBranchInversion)
	fig7ef  = artifact("fig7ef", Fig7efCoreMarkSched)
	fig7g   = artifact("fig7g", Fig7gBoomSPEC)
	fig7k   = artifact("fig7k", Fig7kBoomMicro)
	fig7m   = artifact("fig7m", Fig7mBoomCoreMarkSched)
	fig7n   = artifact("fig7n", Fig7nBoomBranchInversion)
	table5  = artifact("table5", Table5PerLane)
	table6  = artifact("table6", func() (Table6Result, error) { return Table6Overlap(50) })
	fig8    = artifact("fig8", Fig8RecoveryCDF)
	fig9    = artifact("fig9", func() (Fig9Result, error) { return Fig9Physical(true) })
	under   = artifact("undercount", func() (UndercountResult, error) { return UndercountBound("rsort") })
	archcmp = artifact("archcmp", func() (ArchComparison, error) {
		return CounterArchComparison("coremark", boom.EvUopsIssued)
	})
	widths = artifact("widthsweep", func() (WidthSweepResult, error) {
		return WidthSweep("coremark", boom.EvUopsIssued)
	})
	ras     = artifact("ras", func() (RASResult, error) { return RASAblation("towers") })
	sampled = artifact("sampled", func() (SampledComparison, error) { return SampledVsFullPolicy(sample.Default()) })
)

// Unit renders a quantity: the value times Scale, with Prec decimals,
// followed by Suffix.
type Unit struct {
	Scale  float64
	Prec   int
	Suffix string
}

var (
	share   = Unit{100, 1, "%"}
	share3  = Unit{100, 3, "%"}
	points  = Unit{100, 2, " pp"}
	percent = Unit{1, 2, "%"} // quantities already in percent
	number  = Unit{1, 2, ""}
	rate    = Unit{1, 4, " /cycle"}
	count   = Unit{1, 0, ""}
)

// Format renders a measured value.
func (u Unit) Format(v float64) string {
	return strconv.FormatFloat(v*u.Scale, 'f', u.Prec, 64) + u.Suffix
}

// bound renders a predicate bound, which needs no fixed precision.
func (u Unit) bound(v float64) string {
	return strconv.FormatFloat(v*u.Scale, 'g', 6, 64) + u.Suffix
}

// Pred is a claim's predicate: the measured value must lie between Lo
// and Hi, each end closed unless marked open. NaN satisfies no predicate.
type Pred struct {
	Lo, Hi         float64
	LoOpen, HiOpen bool
}

// atLeast is v ≥ x; above is v > x; atMost is v ≤ x; below is v < x;
// between is lo ≤ v ≤ hi; inside is lo < v < hi; equal is v = x.
func atLeast(x float64) Pred      { return Pred{Lo: x, Hi: math.Inf(1)} }
func above(x float64) Pred        { return Pred{Lo: x, Hi: math.Inf(1), LoOpen: true} }
func atMost(x float64) Pred       { return Pred{Lo: math.Inf(-1), Hi: x} }
func below(x float64) Pred        { return Pred{Lo: math.Inf(-1), Hi: x, HiOpen: true} }
func between(lo, hi float64) Pred { return Pred{Lo: lo, Hi: hi} }
func inside(lo, hi float64) Pred  { return Pred{Lo: lo, Hi: hi, LoOpen: true, HiOpen: true} }
func equal(x float64) Pred        { return Pred{Lo: x, Hi: x} }

// Holds reports whether v satisfies the predicate.
func (p Pred) Holds(v float64) bool {
	return (v > p.Lo || !p.LoOpen && v == p.Lo) && (v < p.Hi || !p.HiOpen && v == p.Hi)
}

// Format renders the predicate in the claim's unit.
func (p Pred) Format(u Unit) string {
	lo, hi := u.bound(p.Lo), u.bound(p.Hi)
	switch {
	case p.Lo == p.Hi:
		return "= " + lo
	case math.IsInf(p.Hi, 1) && p.LoOpen:
		return "> " + lo
	case math.IsInf(p.Hi, 1):
		return "≥ " + lo
	case math.IsInf(p.Lo, -1) && p.HiOpen:
		return "< " + hi
	case math.IsInf(p.Lo, -1):
		return "≤ " + hi
	}
	lb, rb := "[", "]"
	if p.LoOpen {
		lb = "("
	}
	if p.HiOpen {
		rb = ")"
	}
	return "in " + lb + lo + ", " + hi + rb
}

// Claims is the registry of paper claims, in EXPERIMENTS.md order. The
// fields of each entry follow the EXPERIMENTS.md columns: id, anchor,
// claim, paper value, measured quantity, unit, predicate, and the reader
// of the artifact result.
var Claims = slices.Concat([]Claim{
	{"fig3-bubbles-not-icache", "§III Fig. 3(b)", "most mergesort fetch bubbles are not I$-related", "yes",
		"fetch-bubble cycles outside every ±8-cycle I$-blocked window / all fetch-bubble cycles", share, atLeast(0.5),
		fig3(func(r Fig3Result) float64 { return ratio(r.BubblesNotICB, r.Totals[rocket.EvFetchBubbles]) })},

	{"fig7a-qsort-badspec", "§V-A Fig. 7(a)", "qsort's lost slots are dominated by Bad Speculation", "yes",
		"qsort Bad Speculation / (1 − Retiring)", share, atLeast(0.4),
		fig7a(func(g TMAGrid) float64 { b := row(g, "qsort"); return b.BadSpec / (1 - b.Retiring) })},
	{"fig7a-rsort-ipc", "§V-A Fig. 7(a)", "rsort runs at near-ideal IPC", "near-ideal",
		"rsort IPC", number, atLeast(0.8),
		fig7a(func(g TMAGrid) float64 { return row(g, "rsort").IPC })},
	{"fig7a-memcpy-backend", "§V-A Fig. 7(a)", "memcpy is the most Backend Bound microbenchmark", "yes",
		"memcpy Backend − max Backend of the other rows (spmv, not in the paper's suite, excluded)", points, atLeast(0),
		fig7a(func(g TMAGrid) float64 { return row(g, "memcpy").Backend - gridMax(g, backend, "memcpy", "spmv") })},
	{"fig7a-memcpy-membound", "§V-A Fig. 7(b)", "a large share of memcpy's Backend is Memory Bound", "≈half",
		"memcpy Memory Bound / Backend", share, atLeast(0.3),
		fig7a(func(g TMAGrid) float64 { b := row(g, "memcpy"); return b.MemBound / b.Backend })},

	{"fig7c-slowdown", "§V-A Fig. 7(c)", "halving the L1D to 16 KiB slows deepsjeng", "7%",
		"slowdown = 16 KiB cycles / 32 KiB cycles − 1", share, above(0), fig7c(slowdown)},
	{"fig7c-backend", "§V-A Fig. 7(c)", "the lost cycles appear as Backend Bound", "≈0% → ≈12% (+12 pp)",
		"Backend(16 KiB) − Backend(32 KiB)", points, above(0), fig7c(variantMinusBase(backend))},

	{"fig7d-retiring", "§V-A Fig. 7(d)", "inverting the branch chain raises Retiring on Rocket", "20% → 33% (+13 pp)",
		"Retiring(brmiss_inv) − Retiring(brmiss)", points, above(0), fig7d(variantMinusBase(retiring))},
	{"fig7d-badspec", "§V-A Fig. 7(d)", "inverting the branch chain lowers Bad Speculation on Rocket", "17% → 6% (−11 pp)",
		"Bad Speculation(brmiss_inv) − Bad Speculation(brmiss)", points, below(0), fig7d(variantMinusBase(badSpec))},

	{"fig7ef-speedup", "§V-A Fig. 7(e)", "instruction scheduling speeds CoreMark up at the same instruction count", "≈4%",
		"speedup = unscheduled cycles / scheduled cycles − 1", share, between(0.01, 0.10), fig7ef(speedup)},
	{"fig7ef-corebound", "§V-A Fig. 7(f)", "the gain comes out of Core Bound", "yes",
		"Core Bound(scheduled) − Core Bound(unscheduled)", points, below(0),
		fig7ef(variantMinusBase(func(b core.Breakdown) float64 { return b.CoreBound }))},

	{"fig7g-x264-retiring", "§V-A Fig. 7(g)", "525.x264_r has the highest retire rate", "yes",
		"x264 Retiring − max Retiring of the other proxies", points, atLeast(0),
		fig7g(func(g TMAGrid) float64 { return row(g, "525.x264_r").Retiring - gridMax(g, retiring, "525.x264_r") })},
	{"fig7g-x264-badspec", "§V-A Fig. 7(g)", "525.x264_r has the largest Bad Speculation", "yes",
		"x264 Bad Speculation − max Bad Speculation of the other proxies", points, atLeast(0),
		fig7g(func(g TMAGrid) float64 { return row(g, "525.x264_r").BadSpec - gridMax(g, badSpec, "525.x264_r") })},
	gridBackend("505.mcf_r", "mcf"), gridMemDominated("505.mcf_r", "mcf"),
	gridBackend("523.xalancbmk_r", "xalancbmk"), gridMemDominated("523.xalancbmk_r", "xalancbmk"),
	{"fig7g-frontend", "§V-A Fig. 7(g)", "Frontend Bound is minimal across all proxies", "minimal",
		"max Frontend over the proxies", share, atMost(0.15),
		fig7g(func(g TMAGrid) float64 { return gridMax(g, func(b core.Breakdown) float64 { return b.Frontend }) })},

	{"fig7k-dhrystone-ipc", "§V-A Fig. 7(k)", "Dhrystone reaches the high-IPC regime", "≈2",
		"dhrystone IPC", number, atLeast(1.2),
		fig7k(func(g TMAGrid) float64 { return row(g, "dhrystone").IPC })},
	{"fig7k-coremark-ipc", "§V-A Fig. 7(k)", "CoreMark reaches the high-IPC regime", "≈2",
		"coremark IPC", number, atLeast(1.0),
		fig7k(func(g TMAGrid) float64 { return row(g, "coremark").IPC })},
	{"fig7k-memcpy-membound", "§V-A Fig. 7(l)", "memcpy stands out as Memory Bound", "yes",
		"memcpy Memory Bound − max Memory Bound of the other rows (vvadd, same streaming footprint, and spmv excluded)",
		points, atLeast(0),
		fig7k(func(g TMAGrid) float64 {
			return row(g, "memcpy").MemBound - gridMax(g, memBound, "memcpy", "vvadd", "spmv")
		})},

	{"fig7m-speedup", "§V-A Fig. 7(m)", "on BOOM, scheduling is worth well under 1%", "0.3%",
		"speedup = unscheduled cycles / scheduled cycles − 1", share, between(-0.01, 0.02), fig7m(speedup)},

	{"fig7n-base-badspec", "§V-A Fig. 7(n)", "brmiss has no Bad Speculation on BOOM", "≈0",
		"Bad Speculation(brmiss)", share, atMost(0.01),
		fig7n(func(cs CaseStudy) float64 { return cs.Base.B.BadSpec })},
	{"fig7n-slowdown", "§V-A Fig. 7(n)", "the inverted build is slower on BOOM", "3% slower",
		"slowdown = brmiss_inv cycles / brmiss cycles − 1", share, above(0), fig7n(slowdown)},
	{"fig7n-inv-badspec", "§V-A Fig. 7(n)", "the slowdown is explained by Bad Speculation", "yes",
		"Bad Speculation(brmiss_inv)", share, atLeast(0.1),
		fig7n(func(cs CaseStudy) float64 { return cs.Variant.B.BadSpec })},

	{"table5-fetch-lanes", "§V-A Table V", "fetch-bubble lanes are ordered, the first lane fewest", "0.02–0.04 / 0.03–0.07 / 0.04–0.12",
		"max over rows and adjacent lanes of rate(lane i) − rate(lane i+1)", rate, atMost(1e-9),
		table5(func(t Table5Result) float64 {
			worst := math.Inf(-1)
			for _, r := range t.Rows {
				for i := 1; i < len(r.FetchBubble); i++ {
					worst = max(worst, r.FetchBubble[i-1]-r.FetchBubble[i])
				}
			}
			return worst
		})},
	{"table5-issue-lanes", "§V-A Table V", "uops-issued lanes are asymmetric", "yes",
		"min over rows of rate(issue lane 0) − rate(issue lane 1)", rate, atLeast(0),
		table5(func(t Table5Result) float64 {
			least := math.Inf(1)
			for _, r := range t.Rows {
				least = min(least, r.UopsIssued[0]-r.UopsIssued[1])
			}
			return least
		})},
	{"table5-exchange2-dblocked", "§V-A Table V", "548.exchange2_r is never D$-blocked", "0.00",
		"max exchange2 D$-blocked lane rate", rate, atMost(0.005),
		table5(func(t Table5Result) float64 {
			for _, r := range t.Rows {
				if r.Name == "548.exchange2_r" {
					return slices.Max(r.DBlocked)
				}
			}
			return math.NaN()
		})},

	{"table6-sample", "§V-B Table VI", "the trace sample is large enough to bound the overlap", "1.5 M cycles",
		"traced cycles over the six workloads", count, atLeast(500_000),
		table6(func(t Table6Result) float64 { return float64(t.Cycles) })},
	{"table6-overlap", "§V-B Table VI", "Frontend ∧ I$-refill ∧ Bad Speculation overlap is tiny", "0.01% of slots",
		"overlap slots (±50-cycle window) / all slots", share3, atMost(0.001),
		table6(func(t Table6Result) float64 { return t.OverlapFrac })},

	{"fig8-mode", "§V-B Fig. 8(b)", "recovery sequences are mostly RedirectLatency long", "4 cycles",
		"most frequent Recovering run length, cycles", count, equal(4),
		fig8(func(r Fig8Result) float64 { return float64(r.Mode) })},
	{"fig8-at-mode", "§V-B Fig. 8(b)", "almost every sequence has the mode length", "almost every sequence",
		"sequences of the mode length / all sequences", share, atLeast(0.9),
		fig8(func(r Fig8Result) float64 { return r.FracAtMode })},
	{"fig8-tail", "§V-B Fig. 8(b)", "a fence after a mispredict makes a long tail", ">30 cycles",
		"longest sequence / mode length", number, atLeast(3),
		fig8(func(r Fig8Result) float64 { return ratio(r.Max, r.Mode) })},

	fig9Overhead("power", "≤4.15%", 4.4, func(r vlsi.Report) float64 { return r.PowerPct }),
	fig9Overhead("area", "≤1.54%", 1.7, func(r vlsi.Report) float64 { return r.AreaPct }),
	fig9Overhead("wire", "≤9.93%", 10.5, func(r vlsi.Report) float64 { return r.WirelenPct }),
	{"fig9b-small-adders", "§V-C Fig. 9(b)", "add-wires has the shorter CSR path at small sizes", "yes",
		"SmallBOOM CSR path, add-wires − distributed (normalized to scalar)", number, below(0),
		fig9(func(r Fig9Result) float64 { n := r.DelayNorm["SmallBOOM"]; return n["add-wires"] - n["distributed"] })},
	{"fig9b-giga-distributed", "§V-C Fig. 9(b)", "distributed counters scale better", "yes",
		"GigaBOOM CSR path, distributed − add-wires (normalized to scalar)", number, below(0),
		fig9(func(r Fig9Result) float64 { n := r.DelayNorm["GigaBOOM"]; return n["distributed"] - n["add-wires"] })},

	{"undercount-bound", "§IV-B", "the distributed undercount is bounded by sources × 2^width", "sources × 2^N",
		"rsort (exact − read) / (sources × 2^width)", number, atMost(1),
		under(func(u UndercountResult) float64 { return ratio(u.Exact-u.Read, u.Bound) })},
	{"undercount-worst-error", "§IV-B", "the worst-case relative error stays small on the smallest benchmark", "12/941 = 1.28%",
		"rsort bound / (exact + bound)", share, atMost(0.03),
		under(func(u UndercountResult) float64 { return ratio(u.Bound, u.Exact+u.Bound) })},

	{"archcmp-agree", "artifact §F", "add-wires and distributed counters agree after post-processing", "yes",
		"CoreMark uops-issued: add-wires read − (distributed read + residue)", count, equal(0),
		archcmp(func(c ArchComparison) float64 {
			return float64(int64(c.Read[pmu.AddWires] - c.Exact[pmu.Distributed]))
		})},
	{"archcmp-scalar", "§II-A", "scalar counters cannot track concurrent events", "implied",
		"1 − scalar read / add-wires read", share, above(0),
		archcmp(func(c ArchComparison) float64 { return 1 - ratio(c.Read[pmu.Scalar], c.Read[pmu.AddWires]) })},

	{"widthsweep-undersized", "extension", "local counters narrower than the automatic width lose events", "—",
		"min events lost over widths below the automatic width", count, above(0),
		widths(func(w WidthSweepResult) float64 {
			least := math.Inf(1)
			for _, p := range w.Points {
				if p.Width < w.AutoWidth {
					least = min(least, float64(p.Lost))
				}
			}
			return least
		})},
	{"widthsweep-auto", "extension", "the automatic width and wider lose no events", "—",
		"max events lost over widths at or above the automatic width", count, equal(0),
		widths(func(w WidthSweepResult) float64 {
			worst := 0.0
			for _, p := range w.Points {
				if p.Width >= w.AutoWidth {
					worst = max(worst, float64(p.Lost))
				}
			}
			return worst
		})},
	{"widthsweep-auto-error", "extension", "the automatic width reads within 0.1% of the exact count", "—",
		"(exact − read at the automatic width) / exact", share3, atMost(0.001),
		widths(func(w WidthSweepResult) float64 {
			var auto WidthPoint
			for _, p := range w.Points {
				if p.Width == w.AutoWidth {
					auto = p
				}
			}
			return float64(w.Exact-auto.Read) / float64(w.Exact)
		})},

	{"ras-speedup", "extension", "a return-address stack speeds up towers on LargeBOOM", "—",
		"speedup = no-RAS cycles / RAS cycles − 1", share, above(0),
		ras(func(r RASResult) float64 { return ratio(r.BaseCycles, r.RASCycles) - 1 })},
	{"ras-pcresteer", "extension", "the RAS recovers the PC-resteer slots", "—",
		"PC Resteer(RAS) − PC Resteer(no RAS)", points, below(0),
		ras(func(r RASResult) float64 { return r.RASPCResteer - r.BasePCResteer })},
}, sampledClaims("rocket"), sampledClaims("LargeBOOM"))

// gridBackend is Fig. 7(g)'s "≈80% Backend Bound" claim for one proxy.
func gridBackend(name, short string) Claim {
	return Claim{"fig7g-" + short + "-backend", "§V-A Fig. 7(g)", name + " is mostly Backend Bound", "≈80%",
		short + " Backend", share, atLeast(0.7),
		fig7g(func(g TMAGrid) float64 { return row(g, name).Backend })}
}

// gridMemDominated is Fig. 7(h–j)'s "memory dominated" claim for one proxy.
func gridMemDominated(name, short string) Claim {
	return Claim{"fig7g-" + short + "-mem", "§V-A Fig. 7(h)", name + "'s Backend is memory dominated", "yes",
		short + " Memory Bound − Core Bound", points, atLeast(0),
		fig7g(func(g TMAGrid) float64 { b := row(g, name); return b.MemBound - b.CoreBound })}
}

// fig9Overhead is Fig. 9(a)'s bound on one overhead, over every point.
func fig9Overhead(what, paper string, limit float64, of func(vlsi.Report) float64) Claim {
	return Claim{"fig9a-" + what, "§V-C Fig. 9(a)", what + " overhead stays near the paper's bound", paper,
		"max " + what + " overhead over 5 sizes × 3 architectures (CoreMark activity)", percent, atMost(limit),
		fig9(func(r Fig9Result) float64 {
			worst := 0.0
			for _, rep := range r.Reports {
				worst = max(worst, of(rep))
			}
			return worst
		})}
}

// sampledClaims are the sampled-simulation acceptance claims for towers
// at the default policy on one core.
func sampledClaims(coreName string) []Claim {
	towers := func(f func(SampledRow) float64) reader {
		return sampled(func(sc SampledComparison) float64 {
			r, ok := sc.Find(coreName, "towers")
			if !ok {
				return math.NaN()
			}
			return f(r)
		})
	}
	id, what := "sampled-"+strings.ToLower(coreName), coreName+" towers: "
	return []Claim{
		{id + "-tma", "extension", what + "sampled top-level TMA within 2 pp of full detail", "—",
			"max over the four top-level shares of abs(sampled − full)", points, atMost(0.02),
			towers(SampledRow.MaxCategoryErr)},
		{id + "-cycles", "extension", what + "sampled cycle estimate within 5%", "—",
			"abs(estimated − full cycles) / full cycles", share, atMost(0.05),
			towers(SampledRow.CycleErr)},
		{id + "-windows", "extension", what + "the estimate rests on several windows", "—",
			"detailed windows", count, atLeast(5),
			towers(func(r SampledRow) float64 { return float64(r.Windows) })},
		{id + "-coverage", "extension", what + "sampling simulates a minority of instructions in detail", "—",
			"detailed instructions / all instructions", share, inside(0, 0.5),
			towers(func(r SampledRow) float64 { return r.Coverage })},
	}
}

func retiring(b core.Breakdown) float64 { return b.Retiring }
func badSpec(b core.Breakdown) float64  { return b.BadSpec }
func backend(b core.Breakdown) float64  { return b.Backend }
func memBound(b core.Breakdown) float64 { return b.MemBound }

func ratio(a, b uint64) float64 { return float64(a) / float64(b) }

// speedup is base cycles / variant cycles − 1 (> 0 ⇒ variant faster).
func speedup(cs CaseStudy) float64 { return cs.Speedup() - 1 }

// slowdown is variant cycles / base cycles − 1 (> 0 ⇒ variant slower).
func slowdown(cs CaseStudy) float64 { return ratio(cs.Variant.Cycles, cs.Base.Cycles) - 1 }

func variantMinusBase(f func(core.Breakdown) float64) func(CaseStudy) float64 {
	return func(cs CaseStudy) float64 { return f(cs.Variant.B) - f(cs.Base.B) }
}

// row returns the named row's breakdown (zero when the grid lacks it).
func row(g TMAGrid, name string) core.Breakdown {
	r, _ := g.Find(name)
	return r.B
}

// gridMax is the largest f over the grid's rows, skipping the excluded
// names (−Inf when no row remains).
func gridMax(g TMAGrid, f func(core.Breakdown) float64, exclude ...string) float64 {
	worst := math.Inf(-1)
	for _, r := range g.Rows {
		if !slices.Contains(exclude, r.Name) {
			worst = max(worst, f(r.B))
		}
	}
	return worst
}

// Outcome is one evaluated claim.
type Outcome struct {
	Claim
	Value float64
	Err   error // the artifact failed; Value is meaningless
}

// Check returns nil when the claim holds, and otherwise an error naming
// the claim, its measured value and its predicate.
func (o Outcome) Check() error {
	if o.Err != nil {
		return fmt.Errorf("%s: artifact %s: %w", o.ID, o.Artifact(), o.Err)
	}
	if !o.Pred.Holds(o.Value) {
		return fmt.Errorf("%s: %s = %s, want %s", o.ID, o.Quantity,
			o.Unit.Format(o.Value), o.Pred.Format(o.Unit))
	}
	return nil
}

// RunClaims evaluates the claims, running each artifact they read once
// (in claim order; the artifacts share jobs through sim.Default's memo).
func RunClaims(claims []Claim) []Outcome {
	type result struct {
		v   any
		err error
	}
	results := map[string]result{}
	outs := make([]Outcome, len(claims))
	for i, c := range claims {
		r, ok := results[c.Artifact()]
		if !ok {
			r.v, r.err = c.read.run()
			results[c.Artifact()] = r
		}
		outs[i] = Outcome{Claim: c, Err: r.err}
		if r.err == nil {
			outs[i].Value = c.read.measure(r.v)
		}
	}
	return outs
}

// FprintClaims renders the EXPERIMENTS.md claim tables: one table per
// artifact, in claim order, each between begin/end marker comments and
// followed by a blank line.
func FprintClaims(w io.Writer, outs []Outcome) {
	for i, o := range outs {
		art := o.Artifact()
		if i == 0 || outs[i-1].Artifact() != art {
			fmt.Fprintf(w, "<!-- begin claims %s: generated by `icicle-bench -only claims` -->\n", art)
			fmt.Fprintln(w, "| id | anchor | claim | paper | measured quantity | measured | asserted |")
			fmt.Fprintln(w, "|---|---|---|---|---|---|---|")
		}
		measured := "error"
		if o.Err == nil {
			measured = o.Unit.Format(o.Value)
		}
		fmt.Fprintf(w, "| `%s` | %s | %s | %s | %s | %s | %s |\n",
			o.ID, o.Anchor, o.Text, o.Paper, o.Quantity, measured, o.Pred.Format(o.Unit))
		if i == len(outs)-1 || outs[i+1].Artifact() != art {
			fmt.Fprintf(w, "<!-- end claims %s -->\n\n", art)
		}
	}
}
