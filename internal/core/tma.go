// Package core implements the paper's primary contribution: the Top-Down
// Microarchitectural Analysis (TMA) model for Rocket and BOOM (§II-B,
// §IV-A, Table II). It converts raw performance-counter values into the
// hierarchical slot breakdown of Fig. 5:
//
//	Retiring | Bad Speculation | Frontend Bound | Backend Bound
//	           ├ Machine Clears   ├ Fetch Latency   ├ Core Bound
//	           └ Branch Mispred.  └ PC Resteer      └ Mem Bound
//	             ├ Resteers
//	             └ Recovery Bubbles
package core

import (
	"fmt"
	"math"
)

// Counts carries the raw counter values a TMA evaluation needs. Per-lane
// events (Fetch-bubbles, Uops-issued, Uops-retired, D$-blocked) are summed
// over lanes, so they are already in units of slots; single-source events
// (Recovering, I$-blocked) are in cycles.
type Counts struct {
	Cycles  uint64 // C_cycle
	InstRet uint64 // architectural instructions retired

	UopsIssued   uint64 // C*_issued  (new; W_I sources)
	UopsRetired  uint64 // C_ret      (new on BOOM; W_C sources)
	FetchBubbles uint64 // C*_fetch   (new; W_C sources)
	Recovering   uint64 // C*_rec     (new; cycles in PC-recovery state)

	Flushes      uint64 // C_flush    (machine clears: fence.i, exceptions, replays)
	BrMispred    uint64 // C_bm       (branch direction mispredictions)
	FenceRetired uint64 // C*_fence   (new; intended flushes, not a pathology)

	ICacheBlocked uint64 // C*_iblk   (cycles: refill in flight + fetch buffer empty)
	DCacheBlocked uint64 // C*_db     (slots: issue-starved + IQ non-empty + MSHR busy)

	// TLB miss events, used by the third-level TLB extension (§VII lists
	// TLB behaviour as future work; this model implements it).
	ITLBMisses  uint64
	DTLBMisses  uint64
	L2TLBMisses uint64
}

// Config parameterizes the model.
type Config struct {
	CommitWidth int // W_C: slots per cycle
	IssueWidth  int // W_I (informational; issue counts are already summed)

	// RecoverLength is M_rl, the modeled pipeline depth from decode to
	// issue: the constant per-misprediction recovery cost used when
	// ApproxRecovery is set. The paper measures this to be 4 on BOOM
	// (Fig. 8b: nearly every recovery sequence lasts exactly 4 cycles).
	RecoverLength float64

	// ApproxRecovery replaces the measured Recovering cycle count with
	// RecoverLength × BrMispred — the constant approximation the paper
	// evaluates against the trace-based CDF (§V-B).
	ApproxRecovery bool

	// TLB, when non-nil, enables the third-level TLB extension: miss
	// events are converted to stall-cycle estimates using the given
	// penalties and reported as ITLB Bound (under Fetch Latency) and
	// DTLB Bound (under Mem Bound).
	TLB *TLBPenalties
}

// TLBPenalties models translation costs: a first-level miss that hits the
// shared L2 TLB, and a full page-table walk.
type TLBPenalties struct {
	L2TLBHit int
	PTW      int
}

// DefaultConfig returns the model configuration for a core with the given
// commit and issue widths.
func DefaultConfig(commitWidth, issueWidth int) Config {
	return Config{CommitWidth: commitWidth, IssueWidth: issueWidth, RecoverLength: 4}
}

// Breakdown is a full TMA evaluation. All fields are fractions of total
// slots (M_total = Cycles × W_C) and each level sums to ~1 within its
// parent.
type Breakdown struct {
	Cfg    Config
	Counts Counts

	// Top level.
	Retiring float64
	BadSpec  float64
	Frontend float64
	Backend  float64

	// Bad Speculation drill-down.
	MachineClears   float64
	BranchMispred   float64 // Resteers + RecoveryBubbles
	Resteers        float64 // flushed-slot share attributed to branch misses
	RecoveryBubbles float64

	// Frontend drill-down.
	FetchLatency float64 // I$-blocked share
	PCResteer    float64 // remaining frontend (unresolved PCs etc.)

	// Backend drill-down.
	CoreBound float64
	MemBound  float64

	// Third-level TLB extension (zero unless Config.TLB is set):
	// ITLBBound ⊆ FetchLatency, DTLBBound ⊆ MemBound.
	ITLBBound float64
	DTLBBound float64

	IPC float64
}

// Evaluate applies the Table II model.
func Evaluate(cfg Config, c Counts) (Breakdown, error) {
	if cfg.CommitWidth <= 0 {
		return Breakdown{}, fmt.Errorf("core: non-positive commit width %d", cfg.CommitWidth)
	}
	if c.Cycles == 0 {
		return Breakdown{}, fmt.Errorf("core: zero cycle count")
	}
	wc := float64(cfg.CommitWidth)
	total := float64(c.Cycles) * wc // M_total

	// Derived flush metrics.
	tf := float64(c.Flushes + c.BrMispred + c.FenceRetired) // M_tf
	var brMR, nfR, flR float64                              // M_br_mr, M_nf_r, M_fl_r
	if tf > 0 {
		brMR = float64(c.BrMispred) / tf
		// Non-fence flush ratio: the share of flushes that are true
		// pathologies (branch misses + machine clears). Table II prints
		// this as (C_bm + C_fence)/M_tf, which would *include* intended
		// fence flushes; we implement the evident intent.
		nfR = float64(c.BrMispred+c.Flushes) / tf
		flR = float64(c.Flushes) / tf
	}

	// Slots killed between issue and retire.
	var flushedSlots float64
	if c.UopsIssued > c.UopsRetired {
		flushedSlots = float64(c.UopsIssued - c.UopsRetired)
	}

	// Recovery bubbles: measured, or the constant approximation.
	recCycles := float64(c.Recovering)
	if cfg.ApproxRecovery {
		recCycles = cfg.RecoverLength * float64(c.BrMispred)
	}
	recSlots := recCycles * wc

	b := Breakdown{Cfg: cfg, Counts: c}
	b.IPC = float64(c.InstRet) / float64(c.Cycles)
	b.Retiring = float64(c.UopsRetired) / total
	b.Frontend = float64(c.FetchBubbles) / total
	b.BadSpec = (flushedSlots*nfR + recSlots) / total
	b.Backend = 1 - b.Frontend - b.BadSpec - b.Retiring

	// Bad Speculation drill-down.
	b.MachineClears = flushedSlots * flR / total
	b.Resteers = flushedSlots * brMR / total
	b.RecoveryBubbles = recSlots / total
	// The model conservatively attributes every recovery bubble to branch
	// misprediction (§IV-A "Low-level Bad speculation").
	b.BranchMispred = b.Resteers + b.RecoveryBubbles

	// Frontend drill-down. I$-blocked is a single-source cycle counter,
	// so it scales by W_C to become slots.
	b.FetchLatency = math.Min(float64(c.ICacheBlocked)*wc/total, b.Frontend)
	b.PCResteer = b.Frontend - b.FetchLatency

	// Backend drill-down. D$-blocked is per commit lane (already slots).
	b.MemBound = math.Min(float64(c.DCacheBlocked)/total, math.Max(b.Backend, 0))
	b.CoreBound = b.Backend - b.MemBound

	// Third-level TLB extension: convert miss events into stall-cycle
	// estimates. Shared L2 TLB misses are apportioned to the I- and
	// D-sides by their first-level miss ratio.
	if t := cfg.TLB; t != nil {
		im, dm := float64(c.ITLBMisses), float64(c.DTLBMisses)
		var iShare float64
		if im+dm > 0 {
			iShare = im / (im + dm)
		}
		l2 := float64(c.L2TLBMisses)
		iCyc := im*float64(t.L2TLBHit) + l2*iShare*float64(t.PTW-t.L2TLBHit)
		dCyc := dm*float64(t.L2TLBHit) + l2*(1-iShare)*float64(t.PTW-t.L2TLBHit)
		b.ITLBBound = math.Min(iCyc*wc/total, b.FetchLatency)
		b.DTLBBound = math.Min(dCyc*wc/total, b.MemBound)
	}

	return b, nil
}

// MustEvaluate is Evaluate that panics on error, for use in benchmarks and
// examples where inputs are program-controlled.
func MustEvaluate(cfg Config, c Counts) Breakdown {
	b, err := Evaluate(cfg, c)
	if err != nil {
		panic(err)
	}
	return b
}

// TopLevelSum returns Retiring+BadSpec+Frontend+Backend (≡1 by
// construction; exposed for property tests).
func (b Breakdown) TopLevelSum() float64 {
	return b.Retiring + b.BadSpec + b.Frontend + b.Backend
}

// MaxTopLevelDiff returns the worst absolute difference between b's and
// o's top-level shares (Retiring, Bad Speculation, Frontend, Backend).
func (b Breakdown) MaxTopLevelDiff(o Breakdown) float64 {
	return max(math.Abs(b.Retiring-o.Retiring), math.Abs(b.BadSpec-o.BadSpec),
		math.Abs(b.Frontend-o.Frontend), math.Abs(b.Backend-o.Backend))
}

// Dominant returns the name of the largest top-level class.
func (b Breakdown) Dominant() string {
	name, best := "retiring", b.Retiring
	for _, c := range []struct {
		n string
		v float64
	}{{"bad-speculation", b.BadSpec}, {"frontend", b.Frontend}, {"backend", b.Backend}} {
		if c.v > best {
			name, best = c.n, c.v
		}
	}
	return name
}
