package perf

import (
	"fmt"
	"sync"

	"icicle/internal/boom"
	"icicle/internal/core"
	"icicle/internal/isa"
	"icicle/internal/kernel"
	"icicle/internal/mem"
	"icicle/internal/rocket"
	"icicle/internal/sample"
)

// Plan cache: the producer pass of the two-phase sampled engine is a
// full functional run of the program, which would dominate sampled wall
// time if repeated per job (fast-forward was ~2/3 of a serial sampled
// run when the serial engine was measured). A plan depends only on the
// program and the sampling cadence — not on the core config or the
// window length — so one cached plan serves a whole config sweep on both
// core models. The cache is process-wide with singleflight builds, like
// sim's job cache.
type planEntry struct {
	done chan struct{}
	plan *sample.Plan
	err  error
}

var (
	planMu    sync.Mutex
	planCache = map[string]*planEntry{}
)

// PlanFor returns the (possibly cached) window plan for the kernel under
// the policy's cadence. Options only matter for the build (tracing and
// telemetry of the producer pass); cache hits ignore them.
func PlanFor(k *kernel.Kernel, p sample.Policy, o sample.Options) (*sample.Plan, error) {
	key := k.Name + "|" + p.ScheduleKey()
	planMu.Lock()
	if e, ok := planCache[key]; ok {
		planMu.Unlock()
		<-e.done
		return e.plan, e.err
	}
	e := &planEntry{done: make(chan struct{})}
	planCache[key] = e
	planMu.Unlock()
	e.plan, e.err = buildPlan(k, p, o)
	close(e.done)
	return e.plan, e.err
}

// ResetPlanCache drops every cached plan (benchmark ablations measure
// cold builds with this).
func ResetPlanCache() {
	planMu.Lock()
	planCache = map[string]*planEntry{}
	planMu.Unlock()
}

// buildPlan runs the producer pass on a dedicated functional CPU.
func buildPlan(k *kernel.Kernel, p sample.Policy, o sample.Options) (*sample.Plan, error) {
	prog, err := k.Program()
	if err != nil {
		return nil, err
	}
	m := mem.NewSparse()
	prog.LoadInto(m)
	cpu := isa.NewCPU(m, prog.Entry)
	return sample.BuildPlan(cpu, m, p, o)
}

// SampleRocketParOn runs the kernel on Rocket under the two-phase
// sampled engine, fanning the plan's detailed windows over the given
// worker cores (all built with the same config; each is Reset first).
// One core is the serial reference — the report is bit-identical for any
// worker count. memo, when non-nil, caches per-window results across
// runs. The returned Result carries extrapolated totals like
// SampleRocketOn, except the cache-stats fields stay zero: per-window
// hierarchy resets make cumulative cache counters meaningless here.
func SampleRocketParOn(cs []*rocket.Core, k *kernel.Kernel, p sample.Policy, o sample.Options, memo sample.WindowMemo) (rocket.Result, *sample.Report, core.Breakdown, error) {
	if len(cs) == 0 {
		return rocket.Result{}, nil, core.Breakdown{}, fmt.Errorf("perf: no worker cores")
	}
	prog, err := k.Program()
	if err != nil {
		return rocket.Result{}, nil, core.Breakdown{}, err
	}
	o = rocketOptions(o)
	plan, err := PlanFor(k, p, o)
	if err != nil {
		return rocket.Result{}, nil, core.Breakdown{}, err
	}
	targets := make([]sample.Target, len(cs))
	for i, c := range cs {
		c.Reset(prog)
		targets[i] = sample.Target{Core: c, CPU: c.CPU, Hier: c.Hier, Pred: c.Pred, Mem: c.Memory()}
	}
	rep, err := sample.RunPlan(plan, p, o, sample.Par{
		Targets:    targets,
		Memo:       memo,
		MemoPrefix: fmt.Sprintf("rocket|%+v|%s", cs[0].Cfg, k.Name),
	})
	if err != nil {
		return rocket.Result{}, nil, core.Breakdown{}, err
	}
	res := rocket.Result{
		Cycles: rep.EstCycles,
		Insts:  rep.TotalInsts,
		Tally:  rep.ScaledTallyMap(),
		Exit:   rep.Exit,
	}
	return res, rep, rep.Breakdown, nil
}

// SampleBoomParOn is the BOOM counterpart of SampleRocketParOn.
func SampleBoomParOn(cs []*boom.Core, k *kernel.Kernel, p sample.Policy, o sample.Options, memo sample.WindowMemo) (boom.Result, *sample.Report, core.Breakdown, error) {
	if len(cs) == 0 {
		return boom.Result{}, nil, core.Breakdown{}, fmt.Errorf("perf: no worker cores")
	}
	prog, err := k.Program()
	if err != nil {
		return boom.Result{}, nil, core.Breakdown{}, err
	}
	o = boomOptions(cs[0], o)
	plan, err := PlanFor(k, p, o)
	if err != nil {
		return boom.Result{}, nil, core.Breakdown{}, err
	}
	targets := make([]sample.Target, len(cs))
	for i, c := range cs {
		c.Reset(prog)
		targets[i] = sample.Target{Core: c, CPU: c.CPU, Hier: c.Hier, Pred: c.Pred, Mem: c.Memory()}
	}
	rep, err := sample.RunPlan(plan, p, o, sample.Par{
		Targets:    targets,
		Memo:       memo,
		MemoPrefix: fmt.Sprintf("boom|%+v|%s", cs[0].Cfg, k.Name),
	})
	if err != nil {
		return boom.Result{}, nil, core.Breakdown{}, err
	}
	res := boom.Result{
		Cycles:    rep.EstCycles,
		Insts:     rep.TotalInsts,
		Tally:     rep.ScaledTallyMap(),
		LaneTally: map[string][]uint64{},
		Exit:      rep.Exit,
	}
	return res, rep, rep.Breakdown, nil
}
