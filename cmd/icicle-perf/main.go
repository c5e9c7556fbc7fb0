// Command icicle-perf is the perf-like front end of the Icicle stack: it
// runs a workload kernel on a simulated Rocket or BOOM core through the
// shared simulation runner, then prints the hierarchical TMA breakdown
// (the tma_tool of the paper's artifact).
//
// Usage:
//
//	icicle-perf -core boom -size large -kernel coremark
//	icicle-perf -core rocket -kernel towers -sample-window 2048
//	icicle-perf -list
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"icicle/internal/boom"
	"icicle/internal/core"
	"icicle/internal/isa"
	"icicle/internal/kernel"
	"icicle/internal/mem"
	"icicle/internal/obs"
	"icicle/internal/rocket"
	"icicle/internal/sample"
	"icicle/internal/sim"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case errors.Is(err, flag.ErrHelp):
	case err != nil:
		fmt.Fprintln(os.Stderr, "icicle-perf:", err)
		os.Exit(1)
	}
}

// run parses args, runs the kernel as one sim.Job on the shared runner,
// and writes the report to w. It holds the whole program so the
// telemetry defer fires on every exit path.
func run(args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet("icicle-perf", flag.ContinueOnError)
	var (
		coreKind = fs.String("core", "boom", "core to simulate: rocket or boom")
		size     = fs.String("size", "large", "BOOM size: small, medium, large, mega, giga")
		kname    = fs.String("kernel", "coremark", "workload kernel (see -list)")
		list     = fs.Bool("list", false, "list available kernels and exit")
		events   = fs.Bool("events", false, "also dump raw event totals")
		tlb      = fs.Bool("tlb", false, "enable the third-level TLB extension")
		ras      = fs.Bool("ras", false, "enable BOOM's return-address stack")

		sampleDef    = sample.Default()
		sampleWindow = fs.Uint64("sample-window", 0, "sampled simulation: detailed window length in cycles (0 = full detail)")
		samplePeriod = fs.Uint64("sample-period", sampleDef.Period, "sampled simulation: instructions fast-forwarded between windows")
		sampleWarmup = fs.Int("sample-warmup", sampleDef.Warmup, "sampled simulation: trailing fast-forward instructions that warm caches and predictors")
		samplePar    = fs.Int("sample-par", 0, "sampled simulation: > 0 runs the two-phase engine, its windows on every idle core (0 = classic serial engine; report is identical either way and for any value)")

		noSuperblock = fs.Bool("no-superblock", false, "disable the superblock threaded-code functional engine (debug/ablation; results are bit-identical either way)")
		noSkip       = fs.Bool("no-skip", false, "disable event-driven stall-cycle skipping in the detailed cores (debug/ablation; results are bit-identical either way)")
	)
	var tele obs.CLI
	tele.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	isa.DefaultSuperblocks = !*noSuperblock
	rocket.DefaultStallSkip = !*noSkip
	boom.DefaultStallSkip = !*noSkip

	// Telemetry first: Start enables span tracing before the shared runner
	// is rebuilt, so the runner picks the tracer up.
	if err := tele.Start("icicle-perf"); err != nil {
		return err
	}
	defer func() {
		if serr := tele.Stop(); serr != nil && err == nil {
			err = serr
		}
	}()
	sim.ConfigureDefault()

	if *list {
		for _, k := range kernel.All() {
			fmt.Fprintf(w, "%-18s %-11s %s\n", k.Name, k.Category, k.Description)
		}
		return nil
	}

	k, err := kernel.ByName(*kname)
	if err != nil {
		return err
	}
	sp := sample.Policy{Window: *sampleWindow, Period: *samplePeriod, Warmup: *sampleWarmup}
	if err := sp.Validate(); err != nil {
		return err
	}

	var (
		j    sim.Job
		name string
		hier mem.HierarchyConfig
	)
	switch *coreKind {
	case "rocket":
		cfg := rocket.DefaultConfig()
		j, name, hier = sim.RocketJob(cfg, k), "Rocket", cfg.Hierarchy
	case "boom":
		s, err := boom.ParseSize(*size)
		if err != nil {
			return err
		}
		cfg := boom.NewConfig(s)
		cfg.UseRAS = *ras
		j, name, hier = sim.BoomJob(cfg, k), cfg.Name, cfg.Hierarchy
	default:
		return fmt.Errorf("unknown core %q (want rocket or boom)", *coreKind)
	}
	switch {
	case sp.Enabled() && *samplePar > 0:
		j = j.WithParallelSampling(sp, *samplePar)
	case sp.Enabled():
		j = j.WithSampling(sp)
	}

	res := sim.Default().RunOne(j)
	if res.Err != nil {
		return res.Err
	}
	b := res.Breakdown
	if *tlb {
		b = withTLB(b, hier.TLBHitL2, hier.PTWLatency)
	}
	fmt.Fprintf(w, "%s on %s\n", k.Name, name)
	fmt.Fprint(w, b)
	printSampled(w, res.Sampled)
	if *events {
		tally := res.Rocket.Tally
		if j.Core == sim.Boom {
			tally = res.Boom.Tally
		}
		dump(w, tally)
	}
	return nil
}

// printSampled appends the estimation summary of a sampled run to the
// breakdown output; a nil report (full-detail run) prints nothing.
func printSampled(w io.Writer, rep *sample.Report) {
	if rep == nil {
		return
	}
	if rep.Exact {
		fmt.Fprintf(w, "sampled (%s): program shorter than one period; run was exact full detail\n", rep.Policy)
		return
	}
	fmt.Fprintf(w, "sampled (%s): est cycles %d  insts %d  windows %d  coverage %.2f%%\n",
		rep.Policy, rep.EstCycles, rep.TotalInsts, len(rep.Windows), 100*rep.Coverage)
	fmt.Fprintf(w, "  CPI %.4f  95%% CI [%.4f, %.4f]\n", rep.CPI, rep.CPICI.Lo, rep.CPICI.Hi)
	for _, name := range []string{"Retiring", "BadSpec", "Frontend", "Backend"} {
		if iv, ok := rep.CategoryCI[name]; ok {
			fmt.Fprintf(w, "  %-8s 95%% CI [%5.1f%%, %5.1f%%]\n", name, 100*iv.Lo, 100*iv.Hi)
		}
	}
}

// withTLB re-evaluates a breakdown with the TLB extension enabled, using
// the hierarchy's translation penalties.
func withTLB(b core.Breakdown, l2hit, ptw int) core.Breakdown {
	cfg := b.Cfg
	cfg.TLB = &core.TLBPenalties{L2TLBHit: l2hit, PTW: ptw}
	return core.MustEvaluate(cfg, b.Counts)
}

func dump(w io.Writer, tally map[string]uint64) {
	keys := make([]string, 0, len(tally))
	for k := range tally {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintln(w, "raw event totals:")
	for _, k := range keys {
		fmt.Fprintf(w, "  %-24s %d\n", k, tally[k])
	}
}
