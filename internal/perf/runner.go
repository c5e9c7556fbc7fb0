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
	c := rocket.New(cfg, prog)
	if err := SimulateRocketOn(c, k); err != nil {
		return rocket.Result{}, core.Breakdown{}, err
	}
	return TallyRocket(c)
}

// SimulateRocketOn resets an existing core onto the kernel's program and
// runs it to completion: the cycle-accurate half of a run, which
// TallyRocket then evaluates. The halves are split so callers (the sim
// pipeline spans) can time them separately; on a reused core the results
// are byte-identical to RunRocket's fresh core.
func SimulateRocketOn(c *rocket.Core, k *kernel.Kernel) error {
	prog, err := k.Program()
	if err != nil {
		return err
	}
	c.Reset(prog)
	return c.RunCycles()
}

// TallyRocket is the evaluation half of a run: extract the dense
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
	if err := SimulateBoomOn(c, k); err != nil {
		return boom.Result{}, core.Breakdown{}, err
	}
	return TallyBoom(c)
}

// SimulateBoomOn is SimulateRocketOn for BOOM.
func SimulateBoomOn(c *boom.Core, k *kernel.Kernel) error {
	prog, err := k.Program()
	if err != nil {
		return err
	}
	c.Reset(prog)
	return c.RunCycles()
}

// TallyBoom is TallyRocket for BOOM.
func TallyBoom(c *boom.Core) (boom.Result, core.Breakdown, error) {
	o := boomOptions(c, sample.Options{})
	b, err := core.Evaluate(o.TMA, o.Counts(c.Cycles(), c.Insts(), c.CopyTally(nil)))
	return c.Result(), b, err
}
