// Package sample implements SMARTS-style sampled simulation: short
// detailed windows on the unmodified cycle-accurate cores, separated by
// fast functional execution on isa.CPU, with functional warming of the
// memory system and predictors before each window. Full-program event
// tallies and TMA breakdowns are extrapolated from the windows with
// confidence intervals.
//
// The controller drives the detailed core's OWN embedded CPU for the
// functional phases, so the memory image is shared by construction: a
// window attach only has to restore the register-file checkpoint
// (isa.Checkpoint) and clear the pipeline, never copy memory. Caches,
// TLBs, and predictors are intentionally NOT reset between windows —
// they stay warm across the whole run and are refreshed by the last
// Warmup instructions of each fast-forward span, which train the caches
// and predictors inline as they execute (the cache LRU and predictor
// state depend only on access order, not timestamps, so inline warming
// is exactly equivalent to replaying the same instructions afterwards).
package sample

import (
	"fmt"
	"math"

	"icicle/internal/core"
)

// Policy is a systematic (periodic) sampling schedule. The run starts
// with a detailed window — capturing the cold-start transient exactly
// like a full run — then alternates Period instructions of functional
// fast-forward with Window cycles of detailed simulation until the
// program halts.
type Policy struct {
	// Window is the detailed window length in cycles. Zero disables
	// sampling (full-detail run).
	Window uint64
	// Period is the number of instructions fast-forwarded functionally
	// between detailed windows.
	Period uint64
	// Warmup is how many of the trailing fast-forward instructions also
	// train the caches, TLBs, and branch predictors as they execute
	// (functional warming; no pipeline timing). Values above Period are
	// clamped to Period — the whole gap is then warmed.
	Warmup int
}

// Default is the tuned default schedule: 2k-cycle windows every 48k
// instructions with the trailing 16k instructions warming the memory
// system and predictors. 16k is past the warming convergence point for
// the 32 KiB L1s on the paper's kernels (doubling it does not move the
// estimates), and the ~3-6% detail fraction holds the top-level TMA
// category error within 2pp on long-running kernels at a >5x wall-clock
// speedup (6.8x Rocket, 6.5x LargeBOOM on towers; see the sampled
// simulation engine's entry in CHANGES.md).
// Short programs should prefer full detail: a run shorter than a handful
// of periods yields too few windows for the extrapolation to be
// trustworthy (the confidence intervals say so).
func Default() Policy {
	return Policy{Window: 2048, Period: 49152, Warmup: 16384}
}

// Enabled reports whether the policy asks for sampling at all.
func (p Policy) Enabled() bool { return p.Window > 0 }

// Validate checks an enabled policy for usable parameters.
func (p Policy) Validate() error {
	if !p.Enabled() {
		return nil
	}
	if p.Period == 0 {
		return fmt.Errorf("sample: period must be positive when window > 0")
	}
	if p.Warmup < 0 {
		return fmt.Errorf("sample: negative warmup %d", p.Warmup)
	}
	return nil
}

// String renders the policy compactly (used in sim job keys).
func (p Policy) String() string {
	if !p.Enabled() {
		return "off"
	}
	return fmt.Sprintf("w%d/p%d/k%d", p.Window, p.Period, p.Warmup)
}

// WindowStat records one detailed window.
type WindowStat struct {
	StartInst  uint64 // architectural instructions retired before the window
	StartCycle uint64 // core cycle counter at attach
	Cycles     uint64 // detailed cycles simulated in the window
	Insts      uint64 // instructions committed by the detailed core
}

// Interval is a 95% confidence interval.
type Interval struct{ Lo, Hi float64 }

// Contains reports whether v lies within the interval.
func (iv Interval) Contains(v float64) bool { return v >= iv.Lo && v <= iv.Hi }

// Width returns Hi-Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Report is the outcome of a sampled run: observed detailed totals plus
// the extrapolated full-program estimates.
type Report struct {
	Policy Policy

	// TotalInsts is the exact architectural instruction count of the
	// whole program (functional + detailed phases; read from the CPU).
	TotalInsts uint64
	// FFInsts is how many of those were executed functionally.
	FFInsts uint64
	// WarmupReplays counts instructions replayed into the warm-up model.
	WarmupReplays uint64

	Windows        []WindowStat
	DetailedCycles uint64
	DetailedInsts  uint64

	// Tally holds the dense per-event deltas accumulated over all
	// detailed windows, indexed like EventNames.
	Tally      []uint64
	EventNames []string

	// EstCycles is the extrapolated full-program cycle count
	// (CPI × TotalInsts); exact when Exact is set.
	EstCycles uint64
	// CPI is the aggregate detailed cycles-per-instruction (the ratio
	// estimator used for extrapolation), with its 95% CI from the
	// per-window CPI variance.
	CPI   float64
	CPICI Interval

	// Breakdown is the TMA evaluation over the pooled detailed counts.
	// Category shares are ratios, so they need no extrapolation scaling.
	Breakdown core.Breakdown
	// CategoryCI gives 95% CIs for the top-level category shares
	// (keys: Retiring, BadSpec, Frontend, Backend), centered on the
	// pooled share with spread from the per-window variance.
	CategoryCI map[string]Interval

	// Coverage is DetailedInsts / TotalInsts.
	Coverage float64
	// Exact is set when the program finished without ever
	// fast-forwarding: the "sampled" run was a full-detail run and
	// EstCycles is the true cycle count.
	Exact bool

	Exit   uint64
	Halted bool
}

// TallyMap returns the observed (unscaled) detailed-window event totals
// keyed by event name.
func (r *Report) TallyMap() map[string]uint64 {
	m := make(map[string]uint64, len(r.Tally))
	for i, name := range r.EventNames {
		if i < len(r.Tally) {
			m[name] = r.Tally[i]
		}
	}
	return m
}

// ScaledTallyMap extrapolates the observed event totals to the full
// program by the instruction coverage ratio (identity when Exact).
func (r *Report) ScaledTallyMap() map[string]uint64 {
	scale := 1.0
	if !r.Exact && r.DetailedInsts > 0 {
		scale = float64(r.TotalInsts) / float64(r.DetailedInsts)
	}
	m := make(map[string]uint64, len(r.Tally))
	for i, name := range r.EventNames {
		if i < len(r.Tally) {
			m[name] = uint64(float64(r.Tally[i])*scale + 0.5)
		}
	}
	return m
}

// meanCI returns the sample mean and the 95% CI half-width of xs.
func meanCI(xs []float64) (mean, half float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(n)
	if n < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	s := math.Sqrt(ss / float64(n-1))
	return mean, 1.96 * s / math.Sqrt(float64(n))
}

func clamp01(v float64) float64 {
	switch {
	case v < 0:
		return 0
	case v > 1:
		return 1
	}
	return v
}
