package sample

import (
	"fmt"

	"icicle/internal/isa"
	"icicle/internal/mem"
	"icicle/internal/obs"
)

// BuildPlan is the producer pass of the two-phase engine: one functional
// execution of the whole program on cpu (backed by m, with the program
// image already loaded and cpu at the entry point), emitting a
// WindowSpec at every window boundary and draining m's dirty frames into
// per-span deltas. The pass is purely functional — no cache, predictor,
// or pipeline state — so it runs at fast-forward speed; its cost is paid
// once per (program, Period, WarmTail) and the plan is then shared by
// every consumer config (see perf's plan cache).
func BuildPlan(cpu *isa.CPU, m *mem.Sparse, p Policy, o Options) (*Plan, error) {
	if !p.Enabled() {
		return nil, fmt.Errorf("sample: policy is disabled (window == 0)")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if cpu == nil || m == nil {
		return nil, fmt.Errorf("sample: BuildPlan needs a CPU and its backing memory")
	}

	warmTail := planWarmTail(p)
	pl := &Plan{Period: p.Period, WarmTail: warmTail}
	bound := p.Period - warmTail

	span := o.Tracer.Begin("plan-produce", "sample", o.Tid)
	m.SetTracking(true)
	defer m.SetTracking(false)
	sb0 := cpu.SuperblockStats()
	defer func() { o.Telemetry.AddSuperblock(cpu.SuperblockStats().Sub(sb0)) }()

	// Window 0 attaches at the entry point with no warm span: the plan
	// captures the cold-start transient exactly like the serial engine.
	base := cpu.InstRet
	if !cpu.Halted {
		var ck isa.Checkpoint
		cpu.CheckpointInto(&ck)
		pl.Specs = append(pl.Specs, WindowSpec{
			StartInst: 0,
			Warm:      ck,
			MaxInsts:  bound,
		})
	}
	for k := uint64(1); !cpu.Halted; k++ {
		// Run to boundary k = k·Period - warmTail, where the warm span of
		// window k begins: snapshot the memory delta and the CPU there.
		if err := runTo(cpu, base+k*p.Period-warmTail); err != nil {
			span.End()
			return nil, err
		}
		if cpu.Halted {
			break
		}
		pl.Deltas = append(pl.Deltas, m.DrainDirty())
		var ck isa.Checkpoint
		cpu.CheckpointInto(&ck)
		// Run the warm span; the window only exists if the program is
		// still live at its start.
		if err := runTo(cpu, base+k*p.Period); err != nil {
			span.End()
			return nil, err
		}
		if cpu.Halted {
			break
		}
		pl.Specs = append(pl.Specs, WindowSpec{
			Index:      len(pl.Specs),
			StartInst:  k * p.Period,
			Warm:       ck,
			WarmInsts:  warmTail,
			MaxInsts:   bound,
			MemVersion: len(pl.Deltas),
		})
	}
	pl.TotalInsts = cpu.InstRet - base
	pl.Exit = cpu.ExitCode
	pl.Halted = cpu.Halted
	span.End(
		obs.Arg{Key: "insts", Val: pl.TotalInsts},
		obs.Arg{Key: "windows", Val: len(pl.Specs)},
		obs.Arg{Key: "delta_bytes", Val: pl.DeltaBytes()},
		obs.Arg{Key: "translations", Val: cpu.SuperblockStats().Sub(sb0).Translations})
	if o.Telemetry != nil {
		o.Telemetry.FFInsts.Add(pl.TotalInsts)
	}
	return pl, nil
}

// runTo advances the functional CPU until InstRet reaches target or
// the program halts, riding the superblock fast-forward path.
// Translation only loads memory, so dirty-frame tracking sees exactly
// the stores the program performs.
func runTo(cpu *isa.CPU, target uint64) error {
	if cpu.InstRet >= target {
		return nil
	}
	_, err := cpu.RunFor(target - cpu.InstRet)
	return err
}
