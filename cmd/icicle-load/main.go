// Command icicle-load is the load-measurement harness: it drives an
// icicle-serve endpoint (or the in-process runner) in closed- or
// open-loop mode and reports a throughput-vs-latency ladder with
// HDR-histogram quantiles, coordinated-omission-corrected open-loop
// latency, per-client breakdowns, declarative SLO verdicts with
// error-budget burn rates, and server-side telemetry (queue-wait
// histograms per priority class, store/memo hit rates) scraped around
// every step.
//
// Usage:
//
//	# closed loop against a live server, 3-rung concurrency ladder
//	icicle-load -target http://localhost:8080 -mode closed \
//	    -concurrency 1,4,16 -duration 5s -kernels vvadd,fib
//
//	# open loop at fixed arrival rates, Poisson pacing, SLO check
//	icicle-load -target http://localhost:8080 -mode open \
//	    -rates 50,100,200 -pacing poisson -duration 10s \
//	    -slo "p99<250ms,p99.9<1s" -out BENCH_9.json
//
//	# in-process engine capacity (no HTTP/queue layers)
//	icicle-load -target sim -mode closed -concurrency 8 -duration 5s
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"icicle/internal/load"
	"icicle/internal/obs"
	"icicle/internal/serve"
	"icicle/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "icicle-load:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	target := flag.String("target", "sim", `target: an icicle-serve base URL ("http://host:port") or "sim" for the in-process runner`)
	mode := flag.String("mode", "closed", "loop discipline: closed (fixed workers) or open (paced arrivals)")
	rates := flag.String("rates", "", "open loop: comma-separated target arrival rates in req/s, one ladder step each")
	concurrency := flag.String("concurrency", "4", "closed loop: comma-separated worker counts, one ladder step each")
	duration := flag.Duration("duration", 5*time.Second, "generation window per ladder step")
	pacing := flag.String("pacing", "poisson", "open loop inter-arrival process: poisson or uniform")
	kernels := flag.String("kernels", "vvadd", "comma-separated kernel names to cycle through")
	core := flag.String("core", "rocket", "core model: rocket or boom")
	size := flag.String("size", "", `BOOM size ("small".."giga"); default "large"`)
	clients := flag.String("clients", "", `client profiles as name:priority:weight:share comma-list, e.g. "interactive:2:2:0.5,batch:0:1:0.5"; default one "anon" client`)
	sloSpec := flag.String("slo", "", `comma-separated latency SLOs evaluated per step, e.g. "p99<250ms,p99.9<1s"`)
	out := flag.String("out", "", "write the JSON report here (e.g. BENCH_9.json)")
	maxInFlight := flag.Int("max-inflight", 256, "open loop: max concurrent dispatches (queued arrivals beyond this still charge latency from their intended time)")
	seed := flag.Int64("seed", 1, "pacing/schedule RNG seed")
	slices := flag.Int("slices", 10, "time slices per step for steady-state (warm-up) detection")
	jobsFlag := flag.Int("j", 0, "sim target: runner slots, i.e. jobs simulating at once (0 = GOMAXPROCS)")
	var o obs.CLI
	o.AddFlags(flag.CommandLine)
	flag.Parse()

	if err := o.Start("icicle-load"); err != nil {
		return err
	}
	defer func() {
		if serr := o.Stop(); serr != nil && err == nil {
			err = serr
		}
	}()

	opts := load.Options{
		Duration:    *duration,
		MaxInFlight: *maxInFlight,
		Seed:        *seed,
		Slices:      *slices,
	}
	switch strings.ToLower(*mode) {
	case "closed":
		opts.Mode = load.Closed
	case "open":
		opts.Mode = load.Open
	default:
		return fmt.Errorf("bad -mode %q (want closed or open)", *mode)
	}
	switch strings.ToLower(*pacing) {
	case "poisson":
		opts.Pacing = load.Poisson
	case "uniform":
		opts.Pacing = load.Uniform
	default:
		return fmt.Errorf("bad -pacing %q (want poisson or uniform)", *pacing)
	}
	if *sloSpec != "" {
		opts.SLOs, err = load.ParseSLOs(*sloSpec)
		if err != nil {
			return err
		}
	}
	opts.Profiles, err = parseClients(*clients)
	if err != nil {
		return err
	}

	var steps []load.Step
	if opts.Mode == load.Open {
		if *rates == "" {
			return fmt.Errorf("open loop needs -rates")
		}
		for _, r := range splitList(*rates) {
			v, perr := strconv.ParseFloat(r, 64)
			if perr != nil || v <= 0 {
				return fmt.Errorf("bad rate %q in -rates", r)
			}
			steps = append(steps, load.Step{Rate: v})
		}
	} else {
		for _, c := range splitList(*concurrency) {
			v, perr := strconv.Atoi(c)
			if perr != nil || v <= 0 {
				return fmt.Errorf("bad worker count %q in -concurrency", c)
			}
			steps = append(steps, load.Step{Concurrency: v})
		}
	}

	specs, err := buildSpecs(*core, *size, splitList(*kernels))
	if err != nil {
		return err
	}

	var tgt load.Target
	var scraper load.Scraper
	if *target == "sim" {
		var runnerOpts []sim.Option
		if *jobsFlag > 0 {
			runnerOpts = append(runnerOpts, sim.WithWorkers(*jobsFlag))
		}
		runnerOpts = append(runnerOpts, sim.WithMetricsRegistry(obs.Default()))
		runner := sim.New(runnerOpts...)
		jobs := make([]sim.Job, len(specs))
		for i, s := range specs {
			jobs[i], err = s.Job()
			if err != nil {
				return err
			}
		}
		tgt = &load.SimTarget{Runner: runner, Jobs: jobs}
		scraper = load.RegistryScraper(obs.Default())
	} else {
		base := strings.TrimRight(*target, "/")
		tgt, err = load.NewHTTPTarget(base, specs, *maxInFlight)
		if err != nil {
			return err
		}
		scraper = load.HTTPScraper(base + "/metrics")
	}

	fmt.Fprintf(os.Stderr, "icicle-load: %s loop, %d steps x %s against %s\n",
		opts.Mode, len(steps), duration, *target)
	rep, err := load.RunLadder(tgt, opts, steps, scraper)
	if err != nil {
		return err
	}
	rep.Target = *target
	rep.Stamp(time.Now())
	rep.WriteText(os.Stdout)
	if *out != "" {
		if err := rep.WriteJSON(*out); err != nil {
			return fmt.Errorf("-out: %w", err)
		}
		fmt.Fprintf(os.Stderr, "icicle-load: report written to %s\n", *out)
	}
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseClients parses "name:priority:weight:share" comma-lists; later
// fields are optional ("batch" alone is priority 0, weight 1, share 1).
func parseClients(spec string) ([]load.Profile, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var out []load.Profile
	for _, c := range splitList(spec) {
		parts := strings.Split(c, ":")
		p := load.Profile{Client: parts[0], Weight: 1, Share: 1}
		if p.Client == "" {
			return nil, fmt.Errorf("bad client %q in -clients", c)
		}
		var err error
		if len(parts) > 1 && parts[1] != "" {
			if p.Priority, err = strconv.Atoi(parts[1]); err != nil {
				return nil, fmt.Errorf("bad priority in %q: %v", c, err)
			}
		}
		if len(parts) > 2 && parts[2] != "" {
			if p.Weight, err = strconv.Atoi(parts[2]); err != nil || p.Weight <= 0 {
				return nil, fmt.Errorf("bad weight in %q", c)
			}
		}
		if len(parts) > 3 && parts[3] != "" {
			if p.Share, err = strconv.ParseFloat(parts[3], 64); err != nil || p.Share <= 0 {
				return nil, fmt.Errorf("bad share in %q", c)
			}
		}
		out = append(out, p)
	}
	return out, nil
}

func buildSpecs(core, size string, kernels []string) ([]serve.JobSpec, error) {
	if len(kernels) == 0 {
		return nil, fmt.Errorf("-kernels is empty")
	}
	specs := make([]serve.JobSpec, len(kernels))
	for i, k := range kernels {
		specs[i] = serve.JobSpec{Core: core, Kernel: k, Size: size}
		if _, err := specs[i].Job(); err != nil {
			return nil, err
		}
	}
	return specs, nil
}
