// Command perfbench is icicle's repository benchmark. It runs one of
// three workloads, checks every simulated result against the goldens in
// perfbench/golden, and prints one JSON result line:
//
//   - figure-sweep: every icicle-bench artifact in a fresh process,
//     in-process simulation on 2 sim workers;
//   - sampled-sweep: closed loop of cold sampled jobs against a fresh
//     icicle-serve;
//   - serve-mix: open-loop Poisson mix of warm jobs, blob reads and cold
//     full-detail jobs against icicle-serve over a pre-seeded store.
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 the
// per-layer metrics, including a layer-by-layer attribution of one cold
// sampled and one cold full-detail request. README.md is the metric
// catalogue.
//
// Usage, from the repository root (run.sh builds first):
//
//	bash perfbench/run.sh --workload sampled-sweep --seed 1 --seconds 36 --trace 0
//	bash perfbench/run.sh repin          # re-pin goldens after an intended model change
//	bash perfbench/run.sh refs           # re-pin the full-detail references
//	bash perfbench/run.sh compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"icicle/internal/perf"
	"icicle/internal/sim"
)

// e2eMetrics are the end-to-end metrics every untraced run reports, in
// BENCHMARK.json order.
var e2eMetrics = []string{
	"setup_s", "wall_s", "minst_per_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb", "ok_frac",
}

var workloads = map[string]func(*env) (*outcome, error){
	"figure-sweep":  figureSweep,
	"sampled-sweep": sampledSweep,
	"serve-mix":     serveMix,
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "sweep-child":
			fs := flag.NewFlagSet("sweep-child", flag.ContinueOnError)
			stats := fs.String("stats", "", "write sweep stats JSON here")
			setupOnly := fs.Bool("setup-only", false, "exit once set up")
			if err := fs.Parse(args[1:]); err != nil {
				return err
			}
			return sweepChild(*stats, *setupOnly)
		case "replay":
			fs := flag.NewFlagSet("replay", flag.ContinueOnError)
			label := fs.String("label", "", "golden label of the job to replay")
			dir := fs.String("dir", "", "store directory the replay persists into")
			out := fs.String("out", "", "write the measurements (JSON) here")
			if err := fs.Parse(args[1:]); err != nil {
				return err
			}
			return replayChild(*label, *dir, *out)
		case "repin":
			sim.ConfigureDefault(sim.WithWorkers(sweepWorkers))
			perf.ResetPlanCache()
			return repin(".")
		case "refs":
			return pinRefs(".")
		case "compare":
			if len(args) != 3 {
				return fmt.Errorf("usage: perfbench compare <base.json> <new.json>")
			}
			return compare(args[1], args[2])
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "figure-sweep, sampled-sweep, serve-mix, or all (one after another)")
	seed := fs.Int64("seed", 1, "seed for request order, arrival times and class picks")
	seconds := fs.Int("seconds", 30, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "1 = report per-layer metrics instead of end-to-end ones")
	buildDir := fs.String("build-dir", ".bench_build", "directory holding bin/icicle-serve and scratch space")
	out := fs.String("out", "", "also write the full run record (JSON) to this file (the last workload's, with all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	names := []string{*workload}
	if *workload == "all" {
		names = []string{"figure-sweep", "sampled-sweep", "serve-mix"}
	}
	for _, name := range names {
		if err := runWorkload(name, *buildDir, *seed, *seconds, *trace == 1, *out); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// runWorkload runs one workload and prints its record and result lines.
func runWorkload(name, buildDir string, seed int64, seconds int, trace bool, out string) error {
	fn, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want figure-sweep, sampled-sweep, serve-mix or all)", name)
	}
	e, err := newEnv(buildDir, seed, time.Duration(seconds)*time.Second, trace)
	if err != nil {
		return err
	}
	defer os.RemoveAll(e.work)

	rec := record{Workload: name, Seed: seed, Seconds: seconds, Trace: trace, Host: fingerprint(".")}
	steal0 := cpuTicks()
	o, err := measure(e, fn)
	if err != nil {
		return err
	}
	// Time the hypervisor took from this machine's CPUs during the run:
	// a high share explains a slow run without a profiler.
	if d := cpuTicks().sub(steal0); d.total > 0 {
		o.notes["host_steal_frac"] = fmt.Sprintf("%.3f", float64(d.steal)/float64(d.total))
	}
	rec.Rounds = o.rounds
	rec.Attempted, rec.Failed, rec.Failures = o.check.attempted, o.check.failed, o.check.failures
	rec.Notes = o.notes
	rec.Metrics = o.m
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if out != "" {
		if err := os.WriteFile(out, append(line, '\n'), 0o644); err != nil {
			return err
		}
	}
	res, err := resultLine(o, trace)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s:\n", name)
	o.m.fprint(os.Stderr)
	fmt.Printf("%s\n%s\n", line, res)
	return nil
}

// measure runs the workload and, in traced mode, the layer probe.
func measure(e *env, fn func(*env) (*outcome, error)) (*outcome, error) {
	start := time.Now()
	if e.trace {
		// The workload gets what the probe leaves of the budget.
		e.seconds -= probeBudget
	}
	o, err := fn(e)
	if err != nil {
		return nil, err
	}
	o.m.set("ok_frac", o.check.okFrac(), "frac")
	if e.trace {
		if err := probe(e, o); err != nil {
			return nil, err
		}
	}
	o.notes["run_seconds"] = fmt.Sprintf("%.1f", time.Since(start).Seconds())
	return o, nil
}

func (c checker) okFrac() float64 {
	if c.attempted == 0 {
		return 0
	}
	return 1 - float64(c.failed)/float64(c.attempted)
}

// resultLine renders the result line: end-to-end metrics when
// untraced, per-layer metrics when traced. Every name is present; a
// layer a workload does not exercise reports 0.
func resultLine(o *outcome, trace bool) ([]byte, error) {
	names := e2eMetrics
	if trace {
		names = layerMetrics()
	}
	ms := metrics{}
	for _, n := range names {
		v, ok := o.m[n]
		switch {
		case ok:
			ms[n] = v
		case trace:
			ms[n] = metric{0, layerUnits[n]}
		default:
			return nil, fmt.Errorf("workload did not measure %s", n)
		}
	}
	attempted := o.check.attempted
	if attempted == 0 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	return json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{o.check.failed == 0, attempted, o.check.failed, ms})
}

// record is the full account of one run: every metric measured, the
// host it ran on, and the failures seen. It is printed before the
// result line and is what `compare` reads.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Host      host              `json:"host"`
	Rounds    int               `json:"rounds"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Notes     map[string]string `json:"notes,omitempty"`
	Metrics   metrics           `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

func (m metrics) fprint(f *os.File) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "  %-34s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// outcome is what a workload measured.
type outcome struct {
	m      metrics
	check  checker
	rounds int
	notes  map[string]string
}

func newOutcome() *outcome { return &outcome{m: metrics{}, notes: map[string]string{}} }

// roundWalls records the round count and each round's wall time.
func (o *outcome) roundWalls(walls []float64) {
	o.rounds = len(walls)
	o.notes["round_wall_s"] = fmt.Sprintf("%.3f", walls)
}

// latencies records the median and the tail of xs (milliseconds) under
// <prefix>_p50_ms and <prefix>_p<want>_ms, noting the sample count and
// the percentile the tail rule actually used.
func (o *outcome) latencies(prefix string, xs []float64, want float64) {
	tailName := fmt.Sprintf("%s_p%d_ms", prefix, int(want*100+0.5))
	q, v := tailQuantile(xs, want)
	o.m.set(prefix+"_p50_ms", median(xs), "ms")
	o.m.set(tailName, v, "ms")
	o.notes[tailName] = fmt.Sprintf("p%.2f of %d samples", 100*q, len(xs))
}

// env is one run's environment.
type env struct {
	self     string        // this executable, for child processes
	serveBin string        // the icicle-serve binary
	work     string        // scratch directory, removed at exit
	seed     int64         // workload seed
	seconds  time.Duration // measurement budget
	trace    bool
	gold     *goldens
}

func newEnv(buildDir string, seed int64, seconds time.Duration, trace bool) (*env, error) {
	g, err := loadGoldens(".")
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	serveBin := filepath.Join(buildDir, "bin", "icicle-serve")
	if _, err := os.Stat(serveBin); err != nil {
		return nil, fmt.Errorf("icicle-serve binary: %w (build it with perfbench/run.sh)", err)
	}
	work, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	return &env{self: self, serveBin: serveBin, work: work, seed: seed, seconds: seconds, trace: trace, gold: g}, nil
}

// rounds paces a workload's rounds against the budget: a round starts
// only if the longest round so far still fits, and the first always runs.
type rounds struct {
	start, last time.Time
	limit       time.Duration
	longest     time.Duration
	n           int
}

func (e *env) rounds() *rounds { return &rounds{start: time.Now(), limit: e.seconds} }

func (r *rounds) next() bool {
	now := time.Now()
	if r.n > 0 {
		if d := now.Sub(r.last); d > r.longest {
			r.longest = d
		}
		if now.Sub(r.start)+r.longest > r.limit {
			return false
		}
	}
	r.n++
	r.last = now
	return true
}
