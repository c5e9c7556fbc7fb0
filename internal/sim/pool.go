package sim

import (
	"fmt"
	"sync"

	"icicle/internal/boom"
	"icicle/internal/core"
	"icicle/internal/kernel"
	"icicle/internal/obs"
	"icicle/internal/perf"
	"icicle/internal/rocket"
	"icicle/internal/sample"
)

// Core pools: Reset-able cores recycled across jobs instead of rebuilt
// per job. Building a core allocates its caches, predictor tables,
// sparse-memory frames, and uop arena; Reset restores all of that in
// place (the program image is zeroed and copied back), so a pooled job's
// steady-state cost is the cycle loop alone. One sync.Pool per config
// fingerprint — a pooled core is only ever handed to a job with the
// exact same configuration, and idle cores stay reclaimable by the GC.
//
// The pools are process-wide (like the kernel program cache): every
// Runner shares them, so replacing the default runner keeps warm cores.
type corePools struct {
	mu    sync.Mutex
	pools map[string]*sync.Pool
}

func (cp *corePools) get(key string) *sync.Pool {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.pools == nil {
		cp.pools = map[string]*sync.Pool{}
	}
	p := cp.pools[key]
	if p == nil {
		p = &sync.Pool{}
		cp.pools[key] = p
	}
	return p
}

var (
	rocketCores corePools
	boomCores   corePools
)

// executeJob runs one job on the tid's trace track. With pooling enabled
// (the default) it drives recycled cores through the split
// perf.Simulate*/Tally* halves so the acquire-core, simulate, and tally
// stages each get their own span; Reset guarantees the result is
// byte-identical to a fresh-core run (the determinism and golden-reset
// tests enforce this), so pooling is invisible outside the allocation
// profile.
func (r *Runner) executeJob(j Job, tid int) Result {
	if !r.corePool {
		workers := 1
		if j.planEngine() {
			n, err := r.windowWorkers(j, sample.Options{})
			if err != nil {
				return Result{Job: j, Err: err}
			}
			defer r.slots.give(n - 1)
			workers = n
		}
		sp := r.tracer.Begin("simulate", "sim", tid)
		res := execute(j, workers)
		sp.End()
		return res
	}
	res := Result{Job: j}
	switch j.Core {
	case Boom:
		res.Boom, res.Sampled, res.Breakdown, res.Err = runPooled(r, j, tid,
			boomCores.get(fmt.Sprintf("%+v", j.Boom)), coreOps[*boom.Core, boom.Result]{
				build: func() (*boom.Core, error) {
					prog, err := j.Kernel.Program()
					if err != nil {
						return nil, err
					}
					return boom.New(j.Boom, prog)
				},
				tel:        r.m.boom,
				sampledPar: perf.SampleBoomParOn,
				sampled:    perf.SampleBoomOn,
				simulate:   perf.SimulateBoomOn,
				tally:      perf.TallyBoom,
			})
	default:
		res.Rocket, res.Sampled, res.Breakdown, res.Err = runPooled(r, j, tid,
			rocketCores.get(fmt.Sprintf("%+v", j.Rocket)), coreOps[*rocket.Core, rocket.Result]{
				build: func() (*rocket.Core, error) {
					prog, err := j.Kernel.Program()
					if err != nil {
						return nil, err
					}
					return rocket.New(j.Rocket, prog), nil
				},
				tel:        r.m.rocket,
				sampledPar: perf.SampleRocketParOn,
				sampled:    perf.SampleRocketOn,
				simulate:   perf.SimulateRocketOn,
				tally:      perf.TallyRocket,
			})
	}
	return res
}

// coreOps is one core model's side of the pooled pipeline: how to build
// a core, its telemetry handle, and its perf entry points (which have
// the same shapes for Rocket and BOOM).
type coreOps[C pooledCore, R any] struct {
	build      func() (C, error)
	tel        *obs.CoreTelemetry
	sampledPar func([]C, *kernel.Kernel, sample.Policy, sample.Options, sample.WindowMemo) (R, *sample.Report, core.Breakdown, error)
	sampled    func(C, *kernel.Kernel, sample.Policy, sample.Options) (R, *sample.Report, core.Breakdown, error)
	simulate   func(C, *kernel.Kernel) error
	tally      func(C) (R, core.Breakdown, error)
}

type pooledCore interface{ SetTelemetry(*obs.CoreTelemetry) }

// runPooled runs j on cores from pool. Every core it took goes back to
// the pool, even after an error: Reset reinitializes every field. A
// plan-engine job runs its windows on as many cores as windowWorkers
// grants, not on the job's SamplePar.
func runPooled[C pooledCore, R any](r *Runner, j Job, tid int, pool *sync.Pool, ops coreOps[C, R]) (res R, rep *sample.Report, bd core.Breakdown, err error) {
	tr := r.tracer
	acq := tr.Begin("acquire-core", "pool", tid)
	cs, built, err := takeCores(r, pool, nil, 1, ops)
	if tr != nil {
		acq.End(obs.Arg{Key: "fresh", Val: built > 0})
	}
	defer func() {
		for _, c := range cs {
			pool.Put(c)
		}
	}()
	if err != nil {
		return res, nil, bd, err
	}
	o := sample.Options{Telemetry: r.m.sample, Tracer: tr, Tid: tid}
	switch {
	case j.planEngine():
		sp := tr.Begin("simulate-sampled-par", "sim", tid)
		var n int
		if n, err = r.windowWorkers(j, o); err == nil {
			if cs, _, err = takeCores(r, pool, cs, n, ops); err == nil {
				res, rep, bd, err = ops.sampledPar(cs, j.Kernel, j.Sample, o, r.windowMemo())
			}
			r.slots.give(n - 1)
		}
		sp.End(obs.Arg{Key: "workers", Val: n})
	case j.Sample.Enabled():
		sp := tr.Begin("simulate-sampled", "sim", tid)
		res, rep, bd, err = ops.sampled(cs[0], j.Kernel, j.Sample, o)
		sp.End()
	default:
		sp := tr.Begin("simulate", "sim", tid)
		err = ops.simulate(cs[0], j.Kernel)
		sp.End()
		if err == nil {
			tp := tr.Begin("tally", "sim", tid)
			res, bd, err = ops.tally(cs[0])
			tp.End()
		}
	}
	return res, rep, bd, err
}

// takeCores tops cs up to n cores, reusing pooled ones where it can and
// building the rest. The runner's throughput telemetry handle is
// (re-)installed on every core: it survives Reset, so cycle and
// instruction counts go to the runner currently driving the core. On a
// build error it still returns the cores it holds, for the pool.
func takeCores[C pooledCore, R any](r *Runner, pool *sync.Pool, cs []C, n int, ops coreOps[C, R]) ([]C, int, error) {
	built := 0
	for len(cs) < n {
		c, ok := pool.Get().(C)
		if ok {
			r.m.coreReuses.Inc()
		} else {
			var err error
			if c, err = ops.build(); err != nil {
				return cs, built, err
			}
			built++
			r.m.coreBuilds.Inc()
		}
		c.SetTelemetry(ops.tel)
		cs = append(cs, c)
	}
	return cs, built, nil
}

// windowWorkers sizes a plan-engine job's window fan-out: the job's own
// worker plus every runner slot free right now, capped at the plan's
// window count minus one. It never blocks, and the job's SamplePar plays
// no part. The caller hands the borrowed slots back with
// r.slots.give(n-1) when the windows are done. The plan comes from
// perf's process-wide cache, so the engine's own PlanFor call is a hit.
func (r *Runner) windowWorkers(j Job, o sample.Options) (int, error) {
	plan, err := perf.PlanFor(j.Kernel, j.Sample, o)
	if err != nil {
		return 0, err
	}
	n := 1 + r.slots.borrow(len(plan.Specs)-1)
	r.m.windowWorkers.Add(uint64(n))
	return n, nil
}
