package perf

import (
	"icicle/internal/boom"
	"icicle/internal/core"
	"icicle/internal/kernel"
	"icicle/internal/rocket"
	"icicle/internal/sample"
)

// Dense tally indices for Rocket's fixed event space, resolved once:
// sampled windows diff the dense slices, so the counts glue must not do
// per-event name lookups.
var rocketIdx = struct {
	instIssued, instRet, fetchBubbles, recovering,
	replay, brMispredict, fence,
	icacheBlocked, dcacheBlocked,
	itlbMiss, dtlbMiss, l2tlbMiss int
}{
	instIssued:    rocket.Events.MustIndex(rocket.EvInstIssued),
	instRet:       rocket.Events.MustIndex(rocket.EvInstRet),
	fetchBubbles:  rocket.Events.MustIndex(rocket.EvFetchBubbles),
	recovering:    rocket.Events.MustIndex(rocket.EvRecovering),
	replay:        rocket.Events.MustIndex(rocket.EvReplay),
	brMispredict:  rocket.Events.MustIndex(rocket.EvBrMispredict),
	fence:         rocket.Events.MustIndex(rocket.EvFence),
	icacheBlocked: rocket.Events.MustIndex(rocket.EvICacheBlocked),
	dcacheBlocked: rocket.Events.MustIndex(rocket.EvDCacheBlocked),
	itlbMiss:      rocket.Events.MustIndex(rocket.EvITLBMiss),
	dtlbMiss:      rocket.Events.MustIndex(rocket.EvDTLBMiss),
	l2tlbMiss:     rocket.Events.MustIndex(rocket.EvL2TLBMiss),
}

// RocketCountsFn maps Rocket's dense event tallies onto the TMA model
// inputs, for full-detail runs and sampled windows alike. Rocket is
// single-issue, so µops ≡ instructions; machine-clear flushes are D$-miss
// replays.
func RocketCountsFn() sample.CountsFn {
	return func(cycles, insts uint64, tally []uint64) core.Counts {
		return core.Counts{
			Cycles:        cycles,
			InstRet:       insts,
			UopsIssued:    tally[rocketIdx.instIssued],
			UopsRetired:   tally[rocketIdx.instRet],
			FetchBubbles:  tally[rocketIdx.fetchBubbles],
			Recovering:    tally[rocketIdx.recovering],
			Flushes:       tally[rocketIdx.replay],
			BrMispred:     tally[rocketIdx.brMispredict],
			FenceRetired:  tally[rocketIdx.fence],
			ICacheBlocked: tally[rocketIdx.icacheBlocked],
			DCacheBlocked: tally[rocketIdx.dcacheBlocked],
			ITLBMisses:    tally[rocketIdx.itlbMiss],
			DTLBMisses:    tally[rocketIdx.dtlbMiss],
			L2TLBMisses:   tally[rocketIdx.l2tlbMiss],
		}
	}
}

// BoomCountsFn maps a BOOM core's dense event tallies onto the TMA model
// inputs, for full-detail runs and sampled windows alike. BOOM's event
// space is per-configuration, so the indices are resolved from the given
// core's space. The Flush event counts every pipeline flush; branch
// mispredicts are recorded separately, so machine clears are the
// difference.
func BoomCountsFn(c *boom.Core) sample.CountsFn {
	s := c.Space
	var idx = struct {
		uopsIssued, uopsRetired, fetchBubbles, recovering,
		flush, brMispredict, fenceRetired,
		icacheBlocked, dcacheBlocked,
		itlbMiss, dtlbMiss, l2tlbMiss int
	}{
		uopsIssued:    s.MustIndex(boom.EvUopsIssued),
		uopsRetired:   s.MustIndex(boom.EvUopsRetired),
		fetchBubbles:  s.MustIndex(boom.EvFetchBubbles),
		recovering:    s.MustIndex(boom.EvRecovering),
		flush:         s.MustIndex(boom.EvFlush),
		brMispredict:  s.MustIndex(boom.EvBrMispredict),
		fenceRetired:  s.MustIndex(boom.EvFenceRetired),
		icacheBlocked: s.MustIndex(boom.EvICacheBlocked),
		dcacheBlocked: s.MustIndex(boom.EvDCacheBlocked),
		itlbMiss:      s.MustIndex(boom.EvITLBMiss),
		dtlbMiss:      s.MustIndex(boom.EvDTLBMiss),
		l2tlbMiss:     s.MustIndex(boom.EvL2TLBMiss),
	}
	return func(cycles, insts uint64, tally []uint64) core.Counts {
		flush, bm := tally[idx.flush], tally[idx.brMispredict]
		var clears uint64
		if flush > bm {
			clears = flush - bm
		}
		return core.Counts{
			Cycles:        cycles,
			InstRet:       insts,
			UopsIssued:    tally[idx.uopsIssued],
			UopsRetired:   tally[idx.uopsRetired],
			FetchBubbles:  tally[idx.fetchBubbles],
			Recovering:    tally[idx.recovering],
			Flushes:       clears,
			BrMispred:     bm,
			FenceRetired:  tally[idx.fenceRetired],
			ICacheBlocked: tally[idx.icacheBlocked],
			DCacheBlocked: tally[idx.dcacheBlocked],
			ITLBMisses:    tally[idx.itlbMiss],
			DTLBMisses:    tally[idx.dtlbMiss],
			L2TLBMisses:   tally[idx.l2tlbMiss],
		}
	}
}

// RocketEventNames labels Rocket's dense tally for sample reports.
func RocketEventNames() []string {
	names := make([]string, len(rocket.Events.Events))
	for i, e := range rocket.Events.Events {
		names[i] = e.Name
	}
	return names
}

// BoomEventNames labels the given core's dense tally for sample reports.
func BoomEventNames(c *boom.Core) []string {
	names := make([]string, len(c.Space.Events))
	for i, e := range c.Space.Events {
		names[i] = e.Name
	}
	return names
}

// rocketOptions fills o's zero-valued evaluation glue with Rocket's: the
// counts table, a single-issue TMA config, and the event names.
func rocketOptions(o sample.Options) sample.Options {
	if o.Counts == nil {
		o.Counts = RocketCountsFn()
	}
	if o.TMA.CommitWidth == 0 {
		o.TMA = core.DefaultConfig(1, 1)
	}
	if o.EventNames == nil {
		o.EventNames = RocketEventNames()
	}
	return o
}

// boomOptions fills o's zero-valued evaluation glue with the BOOM core's:
// its counts table, a TMA config at its decode and issue widths, and its
// event names.
func boomOptions(c *boom.Core, o sample.Options) sample.Options {
	if o.Counts == nil {
		o.Counts = BoomCountsFn(c)
	}
	if o.TMA.CommitWidth == 0 {
		o.TMA = core.DefaultConfig(c.Cfg.DecodeWidth, c.Cfg.IssueWidth)
	}
	if o.EventNames == nil {
		o.EventNames = BoomEventNames(c)
	}
	return o
}

// SampleRocket runs the kernel on Rocket under the sampling policy with
// default options and returns the extrapolated result, report, and TMA
// breakdown.
func SampleRocket(cfg rocket.Config, k *kernel.Kernel, p sample.Policy) (rocket.Result, *sample.Report, core.Breakdown, error) {
	prog, err := k.Program()
	if err != nil {
		return rocket.Result{}, nil, core.Breakdown{}, err
	}
	return SampleRocketOn(rocket.New(cfg, prog), k, p, sample.Options{})
}

// SampleRocketOn resets an existing core and runs the kernel under the
// sampling policy. Zero-valued Options fields are filled with the Rocket
// defaults; the returned Result carries extrapolated cycle and event
// totals (Result.Cycles is the estimate, Result.Insts is exact).
func SampleRocketOn(c *rocket.Core, k *kernel.Kernel, p sample.Policy, o sample.Options) (rocket.Result, *sample.Report, core.Breakdown, error) {
	prog, err := k.Program()
	if err != nil {
		return rocket.Result{}, nil, core.Breakdown{}, err
	}
	c.Reset(prog)
	rep, err := sample.Run(sample.Target{Core: c, CPU: c.CPU, Hier: c.Hier, Pred: c.Pred}, p, rocketOptions(o))
	if err != nil {
		return rocket.Result{}, nil, core.Breakdown{}, err
	}
	res := rocket.Result{
		Cycles: rep.EstCycles,
		Insts:  rep.TotalInsts,
		Tally:  rep.ScaledTallyMap(),
		L1I:    c.Hier.L1I.Stats(),
		L1D:    c.Hier.L1D.Stats(),
		L2:     c.Hier.L2.Stats(),
		Exit:   rep.Exit,
	}
	return res, rep, rep.Breakdown, nil
}

// SampleBoom runs the kernel on BOOM under the sampling policy with
// default options.
func SampleBoom(cfg boom.Config, k *kernel.Kernel, p sample.Policy) (boom.Result, *sample.Report, core.Breakdown, error) {
	prog, err := k.Program()
	if err != nil {
		return boom.Result{}, nil, core.Breakdown{}, err
	}
	c, err := boom.New(cfg, prog)
	if err != nil {
		return boom.Result{}, nil, core.Breakdown{}, err
	}
	return SampleBoomOn(c, k, p, sample.Options{})
}

// SampleBoomOn resets an existing core and runs the kernel under the
// sampling policy, filling zero-valued Options with the BOOM defaults.
func SampleBoomOn(c *boom.Core, k *kernel.Kernel, p sample.Policy, o sample.Options) (boom.Result, *sample.Report, core.Breakdown, error) {
	prog, err := k.Program()
	if err != nil {
		return boom.Result{}, nil, core.Breakdown{}, err
	}
	c.Reset(prog)
	rep, err := sample.Run(sample.Target{Core: c, CPU: c.CPU, Hier: c.Hier, Pred: c.Pred}, p, boomOptions(c, o))
	if err != nil {
		return boom.Result{}, nil, core.Breakdown{}, err
	}
	res := boom.Result{
		Cycles:    rep.EstCycles,
		Insts:     rep.TotalInsts,
		Tally:     rep.ScaledTallyMap(),
		LaneTally: map[string][]uint64{},
		L1I:       c.Hier.L1I.Stats(),
		L1D:       c.Hier.L1D.Stats(),
		L2:        c.Hier.L2.Stats(),
		Exit:      rep.Exit,
	}
	return res, rep, rep.Breakdown, nil
}
