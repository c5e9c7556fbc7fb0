// Command icicle-bench regenerates every table and figure of the paper's
// evaluation section — the equivalent of the artifact's
// plots-iiswc-2025-ae.sh. Select individual artifacts with -only.
//
// Usage:
//
//	icicle-bench                # everything
//	icicle-bench -only fig7a,table5
//	icicle-bench -only claims   # the EXPERIMENTS.md claim tables
//	icicle-bench -j 8 -v        # 8 simulation workers, print runner stats
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strings"
	"time"

	"icicle/internal/boom"
	"icicle/internal/experiments"
	"icicle/internal/isa"
	"icicle/internal/obs"
	"icicle/internal/rocket"
	"icicle/internal/sample"
	"icicle/internal/sim"
)

type artifact struct {
	name string
	desc string
	run  func() error
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "icicle-bench:", err)
		os.Exit(1)
	}
}

// run holds the whole program so the profiling and telemetry defers fire
// on every exit path (os.Exit would skip them).
func run() (err error) {
	only := flag.String("only", "", "comma-separated artifact list (fig3,fig7a,fig7c,fig7d,fig7ef,fig7g,fig7k,fig7m,fig7n,table5,table6,fig8,fig9,undercount,archcmp,widthsweep,ras,sampled,sampledpar,claims)")
	outDir := flag.String("out", "", "also write each artifact to <dir>/<name>.txt (the artifact's iiswc-2025-ae-out equivalent)")
	jobs := flag.Int("j", 0, "simulation worker goroutines (0 = GOMAXPROCS); alias -parallel")
	flag.IntVar(jobs, "parallel", 0, "alias for -j")
	verbose := flag.Bool("v", false, "print one line per simulation job and runner statistics at exit")
	sampleDef := sample.Default()
	sampleWindow := flag.Uint64("sample-window", sampleDef.Window, "sampled artifact: detailed window length in cycles")
	samplePeriod := flag.Uint64("sample-period", sampleDef.Period, "sampled artifact: instructions fast-forwarded between windows")
	sampleWarmup := flag.Int("sample-warmup", sampleDef.Warmup, "sampled artifact: trailing fast-forward instructions that warm caches and predictors")
	samplePar := flag.Int("sample-par", 8, "sampledpar artifact: window workers for the two-phase engine's parallel leg")
	noSuperblock := flag.Bool("no-superblock", false, "disable the superblock threaded-code functional engine (debug/ablation; results are bit-identical either way)")
	noSkip := flag.Bool("no-skip", false, "disable event-driven stall-cycle skipping in the detailed cores (debug/ablation; results are bit-identical either way)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit (go tool pprof)")
	tracefile := flag.String("trace", "", "write a runtime execution trace to this file (go tool trace)")
	var o obs.CLI
	o.AddFlags(flag.CommandLine)
	flag.Parse()
	isa.DefaultSuperblocks = !*noSuperblock
	rocket.DefaultStallSkip = !*noSkip
	boom.DefaultStallSkip = !*noSkip

	// Telemetry first: Start enables span tracing before the shared runner
	// is (re)built, so the runner construction below picks the tracer up.
	o.ProgressSource = func() obs.Progress { return sim.Default().Progress() }
	if err := o.Start("icicle-bench"); err != nil {
		return err
	}
	defer func() {
		if serr := o.Stop(); serr != nil && err == nil {
			err = serr
		}
	}()

	var runnerOpts []sim.Option
	if *jobs > 0 {
		runnerOpts = append(runnerOpts, sim.WithWorkers(*jobs))
	}
	if *verbose {
		// Per-job lines go through the obs-owned writer goroutine so
		// concurrent workers never tear each other's output.
		lines := o.Lines()
		runnerOpts = append(runnerOpts, sim.WithJobCallback(func(res sim.Result, wall time.Duration) {
			status := "sim"
			if res.Cached {
				status = "hit"
			}
			lines.Printf("icicle-bench: %s %-10s %-24s %10s",
				status, res.Job.CoreName(), res.Job.Kernel.Name, wall.Round(time.Microsecond))
		}))
	}
	sim.ConfigureDefault(runnerOpts...)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *tracefile != "" {
		f, err := os.Create(*tracefile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rtrace.Start(f); err != nil {
			return err
		}
		defer rtrace.Stop()
	}
	if *memprofile != "" {
		path := *memprofile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "icicle-bench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "icicle-bench:", err)
			}
		}()
	}

	samplePolicy := sample.Policy{Window: *sampleWindow, Period: *samplePeriod, Warmup: *sampleWarmup}
	if err := samplePolicy.Validate(); err != nil {
		return err
	}

	var w io.Writer = os.Stdout
	artifacts := []artifact{
		{"fig3", "motivating frontend trace", func() error {
			r, err := experiments.Fig3FrontendTrace()
			if err != nil {
				return err
			}
			r.Fprint(w)
			return nil
		}},
		{"fig7a", "Rocket microbenchmark TMA (top level + backend)", func() error {
			g, err := experiments.Fig7aRocketMicro()
			if err != nil {
				return err
			}
			g.Fprint(w)
			g.FprintBackend(w)
			return nil
		}},
		{"fig7c", "Rocket CS1: L1D size study", func() error {
			cs, err := experiments.Fig7cCacheStudy()
			if err != nil {
				return err
			}
			cs.Fprint(w)
			return nil
		}},
		{"fig7d", "Rocket CS2: branch inversion", func() error {
			cs, err := experiments.Fig7dBranchInversion()
			if err != nil {
				return err
			}
			cs.Fprint(w)
			return nil
		}},
		{"fig7ef", "Rocket CS3: CoreMark scheduling", func() error {
			cs, err := experiments.Fig7efCoreMarkSched()
			if err != nil {
				return err
			}
			cs.Fprint(w)
			fmt.Fprintln(w, cs.Base.B.BackendRow(cs.BaseName))
			fmt.Fprintln(w, cs.Variant.B.BackendRow(cs.VarName))
			return nil
		}},
		{"fig7g", "BOOM SPEC proxy TMA (top + second level)", func() error {
			g, err := experiments.Fig7gBoomSPEC()
			if err != nil {
				return err
			}
			g.Fprint(w)
			g.FprintBackend(w)
			return nil
		}},
		{"fig7k", "BOOM microbenchmark TMA", func() error {
			g, err := experiments.Fig7kBoomMicro()
			if err != nil {
				return err
			}
			g.Fprint(w)
			g.FprintBackend(w)
			return nil
		}},
		{"fig7m", "BOOM CS: CoreMark scheduling", func() error {
			cs, err := experiments.Fig7mBoomCoreMarkSched()
			if err != nil {
				return err
			}
			cs.Fprint(w)
			return nil
		}},
		{"fig7n", "BOOM CS: branch inversion", func() error {
			cs, err := experiments.Fig7nBoomBranchInversion()
			if err != nil {
				return err
			}
			cs.Fprint(w)
			return nil
		}},
		{"table5", "per-lane event rates", func() error {
			t, err := experiments.Table5PerLane()
			if err != nil {
				return err
			}
			t.Fprint(w)
			return nil
		}},
		{"table6", "temporal TMA overlap bound", func() error {
			t, err := experiments.Table6Overlap(50)
			if err != nil {
				return err
			}
			t.Fprint(w)
			return nil
		}},
		{"fig8", "recovery-length CDF", func() error {
			r, err := experiments.Fig8RecoveryCDF()
			if err != nil {
				return err
			}
			r.Fprint(w)
			return nil
		}},
		{"fig9", "physical-design overheads", func() error {
			r, err := experiments.Fig9Physical(true)
			if err != nil {
				return err
			}
			r.Fprint(w)
			return nil
		}},
		{"undercount", "distributed-counter undercount bound", func() error {
			u, err := experiments.UndercountBound("rsort")
			if err != nil {
				return err
			}
			u.Fprint(w)
			return nil
		}},
		{"archcmp", "counter architecture value comparison", func() error {
			c, err := experiments.CounterArchComparison("coremark", "uops-issued")
			if err != nil {
				return err
			}
			c.Fprint(w)
			return nil
		}},
		{"widthsweep", "distributed local-counter width ablation", func() error {
			r, err := experiments.WidthSweep("coremark", "uops-issued")
			if err != nil {
				return err
			}
			r.Fprint(w)
			return nil
		}},
		{"ras", "return-address stack ablation", func() error {
			r, err := experiments.RASAblation("towers")
			if err != nil {
				return err
			}
			r.Fprint(w)
			return nil
		}},
		{"sampled", "sampled vs full-detail TMA validation", func() error {
			sc, err := experiments.SampledVsFullPolicy(samplePolicy)
			if err != nil {
				return err
			}
			sc.Fprint(w)
			return nil
		}},
		{"sampledpar", "two-phase sampled engine: parallel vs serial reports", func() error {
			sc, err := experiments.SampledParVsSerial(samplePolicy, *samplePar)
			if err != nil {
				return err
			}
			sc.Fprint(w)
			if !sc.AllIdentical() {
				return fmt.Errorf("parallel sampled report differs from serial reference")
			}
			return nil
		}},
		{"claims", "paper-claim registry: the EXPERIMENTS.md claim tables", func() error {
			outs := experiments.RunClaims(experiments.Claims)
			experiments.FprintClaims(w, outs)
			var errs []error
			for _, o := range outs {
				errs = append(errs, o.Check())
			}
			return errors.Join(errs...)
		}},
	}

	want := map[string]bool{}
	if *only != "" {
		for _, n := range strings.Split(*only, ",") {
			want[strings.TrimSpace(n)] = true
		}
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}
	for _, a := range artifacts {
		if len(want) > 0 && !want[a.name] {
			continue
		}
		var file *os.File
		if *outDir != "" {
			var err error
			file, err = os.Create(filepath.Join(*outDir, a.name+".txt"))
			if err != nil {
				return err
			}
			w = io.MultiWriter(os.Stdout, file)
		}
		fmt.Fprintf(w, "\n==== %s: %s ====\n", a.name, a.desc)
		if err := a.run(); err != nil {
			return fmt.Errorf("%s: %w", a.name, err)
		}
		if file != nil {
			if err := file.Close(); err != nil {
				return err
			}
		}
	}
	if *verbose {
		// Stats go to stderr so artifact output on stdout stays diffable;
		// the line writer keeps them ordered after the per-job lines.
		o.Lines().Printf("\nicicle-bench: %s", sim.Default().Snapshot())
	}
	return nil
}
