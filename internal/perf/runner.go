package perf

import (
	"icicle/internal/boom"
	"icicle/internal/core"
	"icicle/internal/kernel"
	"icicle/internal/rocket"
	"icicle/internal/sample"
)

// RunRocket simulates the kernel on Rocket and evaluates TMA.
func RunRocket(cfg rocket.Config, k *kernel.Kernel) (rocket.Result, core.Breakdown, error) {
	prog, err := k.Program()
	if err != nil {
		return rocket.Result{}, core.Breakdown{}, err
	}
	return RunRocketOn(rocket.New(cfg, prog), k)
}

// RunRocketOn resets an existing core, simulates the kernel on it, and
// evaluates TMA. This is the pooled-core path of internal/sim: results
// are byte-identical to RunRocket with a fresh core.
func RunRocketOn(c *rocket.Core, k *kernel.Kernel) (rocket.Result, core.Breakdown, error) {
	if err := SimulateRocketOn(c, k); err != nil {
		return rocket.Result{}, core.Breakdown{}, err
	}
	return TallyRocket(c)
}

// SimulateRocketOn is the cycle-accurate half of RunRocketOn: program,
// reset, and run to completion. Split out so callers (the sim pipeline
// spans) can time simulation and tallying separately.
func SimulateRocketOn(c *rocket.Core, k *kernel.Kernel) error {
	prog, err := k.Program()
	if err != nil {
		return err
	}
	c.Reset(prog)
	return c.RunCycles()
}

// TallyRocket is the evaluation half of RunRocketOn: extract the dense
// event tallies and evaluate the TMA tree over them.
func TallyRocket(c *rocket.Core) (rocket.Result, core.Breakdown, error) {
	o := rocketOptions(sample.Options{})
	b, err := core.Evaluate(o.TMA, o.Counts(c.Cycles(), c.Insts(), c.CopyTally(nil)))
	return c.Result(), b, err
}

// RunBoom simulates the kernel on BOOM and evaluates TMA.
func RunBoom(cfg boom.Config, k *kernel.Kernel) (boom.Result, core.Breakdown, error) {
	prog, err := k.Program()
	if err != nil {
		return boom.Result{}, core.Breakdown{}, err
	}
	c, err := boom.New(cfg, prog)
	if err != nil {
		return boom.Result{}, core.Breakdown{}, err
	}
	return RunBoomOn(c, k)
}

// RunBoomOn resets an existing core, simulates the kernel on it, and
// evaluates TMA. This is the pooled-core path of internal/sim: results
// are byte-identical to RunBoom with a fresh core.
func RunBoomOn(c *boom.Core, k *kernel.Kernel) (boom.Result, core.Breakdown, error) {
	if err := SimulateBoomOn(c, k); err != nil {
		return boom.Result{}, core.Breakdown{}, err
	}
	return TallyBoom(c)
}

// SimulateBoomOn is the cycle-accurate half of RunBoomOn.
func SimulateBoomOn(c *boom.Core, k *kernel.Kernel) error {
	prog, err := k.Program()
	if err != nil {
		return err
	}
	c.Reset(prog)
	return c.RunCycles()
}

// TallyBoom is the evaluation half of RunBoomOn.
func TallyBoom(c *boom.Core) (boom.Result, core.Breakdown, error) {
	o := boomOptions(c, sample.Options{})
	b, err := core.Evaluate(o.TMA, o.Counts(c.Cycles(), c.Insts(), c.CopyTally(nil)))
	return c.Result(), b, err
}
