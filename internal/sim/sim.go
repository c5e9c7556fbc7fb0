// Package sim is the simulation job runner: the evaluation suite's sweeps
// (Fig. 7 grids, Table V/VI, the ablations) are embarrassingly parallel —
// dozens of independent (core, config, kernel) simulations — so the runner
// fans them out across a worker pool and memoizes results by content key,
// the software analogue of FireSim farming FPGA simulations out in bulk.
//
// Two entry points:
//
//   - Runner.Run executes batches of Job descriptors (a core kind, its
//     config, and a kernel) through perf.RunRocket / perf.RunBoom, returning
//     results in submission order regardless of completion order, with a
//     config-fingerprint + kernel-name memoization cache on top.
//   - Map fans an arbitrary per-item function out over the same worker
//     discipline, for sweeps that need a custom harness (cycle hooks,
//     forced PMU widths) and therefore cannot be memoized.
package sim

import (
	"fmt"

	"icicle/internal/boom"
	"icicle/internal/core"
	"icicle/internal/kernel"
	"icicle/internal/perf"
	"icicle/internal/rocket"
	"icicle/internal/sample"
)

// CoreKind selects the timing model a Job runs on.
type CoreKind uint8

const (
	// Rocket runs the job on the in-order Rocket model.
	Rocket CoreKind = iota
	// Boom runs the job on the out-of-order BOOM model.
	Boom
)

// Job is one simulation: a kernel on a configured core.
type Job struct {
	Core   CoreKind
	Rocket rocket.Config // used when Core == Rocket
	Boom   boom.Config   // used when Core == Boom
	Kernel *kernel.Kernel

	// Sample selects the detail mode: the zero value (disabled) runs
	// full-detail; an enabled policy runs the sampled engine and returns
	// extrapolated results (Result.Sampled carries the report).
	Sample sample.Policy

	// SamplePar > 0 selects the two-phase plan engine for sampled jobs:
	// one producer pass plus parallel window workers. Its value sizes
	// nothing: the runner sets the worker count from its own free slots
	// (see Runner), and the report is bit-identical for every worker
	// count, so SamplePar is deliberately NOT part of Key(). Ignored when
	// Sample is disabled.
	SamplePar int
}

// planEngine reports whether j runs on the two-phase plan engine.
func (j Job) planEngine() bool { return j.Sample.Enabled() && j.SamplePar > 0 }

// WithSampling returns a copy of the job running under the sampling
// policy instead of full detail.
func (j Job) WithSampling(p sample.Policy) Job {
	j.Sample = p
	return j
}

// WithParallelSampling returns a copy of the job running under the
// two-phase sampled engine. workers is recorded as SamplePar (values < 1
// are treated as 1) but sizes nothing: the runner picks the window
// workers.
func (j Job) WithParallelSampling(p sample.Policy, workers int) Job {
	if workers < 1 {
		workers = 1
	}
	j.Sample = p
	j.SamplePar = workers
	return j
}

// RocketJob describes a Rocket simulation.
func RocketJob(cfg rocket.Config, k *kernel.Kernel) Job {
	return Job{Core: Rocket, Rocket: cfg, Kernel: k}
}

// BoomJob describes a BOOM simulation.
func BoomJob(cfg boom.Config, k *kernel.Kernel) Job {
	return Job{Core: Boom, Boom: cfg, Kernel: k}
}

// CoreName names the configured core ("rocket" or the BOOM size name).
func (j Job) CoreName() string {
	if j.Core == Boom {
		return j.Boom.Name
	}
	return "rocket"
}

// Key is the memoization key: the core kind, every config field (the
// configs are pure value types, so the rendered form is a complete
// fingerprint — lane counts, cache geometry, PMU architecture and all),
// the kernel name, and the detail mode. Sampled and full-detail runs of
// the same (core, kernel) produce different results, so an enabled
// sampling policy is part of the key; full-detail jobs keep their
// historical key shape.
func (j Job) Key() string {
	key := ""
	switch j.Core {
	case Boom:
		key = fmt.Sprintf("boom|%s|%+v", j.Kernel.Name, j.Boom)
	default:
		key = fmt.Sprintf("rocket|%s|%+v", j.Kernel.Name, j.Rocket)
	}
	if j.Sample.Enabled() {
		if j.SamplePar > 0 {
			// The plan engine has its own (instruction-anchored) window
			// semantics, so its results get a distinct key family; the
			// worker count is excluded because results are bit-identical
			// across counts.
			key += "|sample2{" + j.Sample.String() + "}"
		} else {
			key += "|sample{" + j.Sample.String() + "}"
		}
	}
	return key
}

// ConfigFingerprint is the core-plus-configuration part of the memo key,
// with the kernel and detail mode stripped: the sharding axis of the
// serve layer. Routing by config keeps every kernel of one configuration
// on one node, so that node's core pools and plan cache stay hot for the
// whole config sweep.
func (j Job) ConfigFingerprint() string {
	if j.Core == Boom {
		return fmt.Sprintf("boom|%+v", j.Boom)
	}
	return fmt.Sprintf("rocket|%+v", j.Rocket)
}

// Result is one job's outcome. Exactly one of Rocket/Boom is populated,
// per Job.Core. Cached results share Tally/LaneTally maps with every other
// holder of the same key: treat them as read-only.
type Result struct {
	Job       Job
	Rocket    rocket.Result // valid when Job.Core == Rocket
	Boom      boom.Result   // valid when Job.Core == Boom
	Breakdown core.Breakdown
	// Sampled is the sampling report for jobs run under an enabled
	// policy (nil for full-detail jobs). The Rocket/Boom results then
	// hold extrapolated cycle and event totals.
	Sampled *sample.Report
	Err     error
	Cached  bool // served without simulating (memo or persistent store)
	// FromStore marks a result whose bytes came from the persistent
	// result store (directly, or via a memo entry the store seeded) —
	// i.e. no process in this lifetime simulated it.
	FromStore bool
}

// Cycles returns the simulated cycle count of whichever core ran.
func (r Result) Cycles() uint64 {
	if r.Job.Core == Boom {
		return r.Boom.Cycles
	}
	return r.Rocket.Cycles
}

// Insts returns the retired instruction count.
func (r Result) Insts() uint64 {
	if r.Job.Core == Boom {
		return r.Boom.Insts
	}
	return r.Rocket.Insts
}

// Exit returns the workload's exit checksum.
func (r Result) Exit() uint64 {
	if r.Job.Core == Boom {
		return r.Boom.Exit
	}
	return r.Rocket.Exit
}

// Tally returns the exact total of the named event.
func (r Result) Tally(event string) uint64 {
	if r.Job.Core == Boom {
		return r.Boom.Tally[event]
	}
	return r.Rocket.Tally[event]
}

// execute runs the simulation described by j (no caching, no pooling),
// a plan-engine job on the given number of window workers.
func execute(j Job, workers int) Result {
	res := Result{Job: j}
	switch {
	case j.Core == Boom && j.planEngine():
		res.Boom, res.Sampled, res.Breakdown, res.Err = perf.SampleBoomPar(j.Boom, j.Kernel, j.Sample, sample.Options{}, workers)
	case j.Core == Boom && j.Sample.Enabled():
		res.Boom, res.Sampled, res.Breakdown, res.Err = perf.SampleBoom(j.Boom, j.Kernel, j.Sample)
	case j.Core == Boom:
		res.Boom, res.Breakdown, res.Err = perf.RunBoom(j.Boom, j.Kernel)
	case j.planEngine():
		res.Rocket, res.Sampled, res.Breakdown, res.Err = perf.SampleRocketPar(j.Rocket, j.Kernel, j.Sample, sample.Options{}, workers)
	case j.Sample.Enabled():
		res.Rocket, res.Sampled, res.Breakdown, res.Err = perf.SampleRocket(j.Rocket, j.Kernel, j.Sample)
	default:
		res.Rocket, res.Breakdown, res.Err = perf.RunRocket(j.Rocket, j.Kernel)
	}
	return res
}
