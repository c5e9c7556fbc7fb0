package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"time"

	"icicle/internal/experiments"
	"icicle/internal/kernel"
	"icicle/internal/obs"
	"icicle/internal/perf"
	"icicle/internal/sample"
	"icicle/internal/sim"
)

// sweepWorkers is the sim worker count of the figure sweep (the host's
// core count, so the sweep is CPU-bound on every core).
const sweepWorkers = 2

// artifact is one icicle-bench table or figure.
type artifact struct {
	name string
	run  func(w io.Writer) error
}

// artifacts mirrors icicle-bench's artifact list, in its order.
func artifacts() []artifact {
	p := sample.Default()
	return []artifact{
		{"fig3", func(w io.Writer) error { r, err := experiments.Fig3FrontendTrace(); return show(w, r, err) }},
		{"fig7a", func(w io.Writer) error { g, err := experiments.Fig7aRocketMicro(); return showGrid(w, g, err) }},
		{"fig7c", func(w io.Writer) error { cs, err := experiments.Fig7cCacheStudy(); return show(w, cs, err) }},
		{"fig7d", func(w io.Writer) error { cs, err := experiments.Fig7dBranchInversion(); return show(w, cs, err) }},
		{"fig7ef", func(w io.Writer) error {
			cs, err := experiments.Fig7efCoreMarkSched()
			if err == nil {
				cs.Fprint(w)
				fmt.Fprintln(w, cs.Base.B.BackendRow(cs.BaseName))
				fmt.Fprintln(w, cs.Variant.B.BackendRow(cs.VarName))
			}
			return err
		}},
		{"fig7g", func(w io.Writer) error { g, err := experiments.Fig7gBoomSPEC(); return showGrid(w, g, err) }},
		{"fig7k", func(w io.Writer) error { g, err := experiments.Fig7kBoomMicro(); return showGrid(w, g, err) }},
		{"fig7m", func(w io.Writer) error { cs, err := experiments.Fig7mBoomCoreMarkSched(); return show(w, cs, err) }},
		{"fig7n", func(w io.Writer) error { cs, err := experiments.Fig7nBoomBranchInversion(); return show(w, cs, err) }},
		{"table5", func(w io.Writer) error { t, err := experiments.Table5PerLane(); return show(w, t, err) }},
		{"table6", func(w io.Writer) error { t, err := experiments.Table6Overlap(50); return show(w, t, err) }},
		{"fig8", func(w io.Writer) error { r, err := experiments.Fig8RecoveryCDF(); return show(w, r, err) }},
		{"fig9", func(w io.Writer) error { r, err := experiments.Fig9Physical(true); return show(w, r, err) }},
		{"undercount", func(w io.Writer) error { u, err := experiments.UndercountBound("rsort"); return show(w, u, err) }},
		{"archcmp", func(w io.Writer) error {
			c, err := experiments.CounterArchComparison("coremark", "uops-issued")
			return show(w, c, err)
		}},
		{"widthsweep", func(w io.Writer) error {
			r, err := experiments.WidthSweep("coremark", "uops-issued")
			return show(w, r, err)
		}},
		{"ras", func(w io.Writer) error { r, err := experiments.RASAblation("towers"); return show(w, r, err) }},
		{"sampled", func(w io.Writer) error { sc, err := experiments.SampledVsFullPolicy(p); return show(w, sc, err) }},
		{"sampledpar", func(w io.Writer) error {
			sc, err := experiments.SampledParVsSerial(p, sweepWorkers)
			if err := show(w, sc, err); err != nil {
				return err
			}
			if !sc.AllIdentical() {
				return fmt.Errorf("parallel sampled report differs from serial reference")
			}
			return nil
		}},
	}
}

// show prints an experiment's result when it succeeded.
func show(w io.Writer, v interface{ Fprint(io.Writer) }, err error) error {
	if err == nil {
		v.Fprint(w)
	}
	return err
}

// showGrid prints a TMA grid and its backend breakdown.
func showGrid(w io.Writer, g experiments.TMAGrid, err error) error {
	if err := show(w, g, err); err != nil {
		return err
	}
	g.FprintBackend(w)
	return nil
}

// wallColumns matches the host-time columns of the sampledpar table, the
// only part of the sweep's text that is not a pure function of the model.
var wallColumns = regexp.MustCompile(`serial \S+\s+par \S+\s+\S+x`)

func stripWall(text string) string { return wallColumns.ReplaceAllString(text, "serial - par - -") }

// sweepStats is what one figure-sweep child reports back.
type sweepStats struct {
	WallSec      float64            `json:"wall_sec"`
	ArtifactSec  map[string]float64 `json:"artifact_sec"`
	DoneSec      []float64          `json:"done_sec"` // when each artifact was done, from sweep start
	DetailInsts  uint64             `json:"detail_insts"`
	Jobs         uint64             `json:"jobs"`
	Hits         uint64             `json:"hits"`
	SimWallSec   float64            `json:"sim_wall_sec"`
	SlowestSec   float64            `json:"slowest_sec"`
	CoreBuilds   uint64             `json:"core_builds"`
	CoreReuses   uint64             `json:"core_reuses"`
	AllocBytes   uint64             `json:"alloc_bytes"`
	GCCycles     uint64             `json:"gc_cycles"`
	ArtifactErrs map[string]string  `json:"artifact_errs,omitempty"`
}

// runFigureArtifacts runs every artifact in this process on the shared
// runner and returns the concatenated text and the per-artifact stats.
// The caller configures the runner first.
func runFigureArtifacts() (string, sweepStats) {
	st := sweepStats{ArtifactSec: map[string]float64{}}
	var buf bytes.Buffer
	start := time.Now()
	for _, a := range artifacts() {
		t0 := time.Now()
		fmt.Fprintf(&buf, "\n==== %s ====\n", a.name)
		if err := a.run(&buf); err != nil {
			if st.ArtifactErrs == nil {
				st.ArtifactErrs = map[string]string{}
			}
			st.ArtifactErrs[a.name] = err.Error()
		}
		st.ArtifactSec[a.name] = time.Since(t0).Seconds()
		st.DoneSec = append(st.DoneSec, time.Since(start).Seconds())
	}
	st.WallSec = time.Since(start).Seconds()
	return buf.String(), st
}

// sweepChild is the figure-sweep child process: set up (assemble every
// kernel, build a fresh runner and plan cache), signal readiness on
// stderr, run the sweep, print its text on stdout and its stats to
// statsPath. With setupOnly it exits once ready.
func sweepChild(statsPath string, setupOnly bool) error {
	for _, k := range kernel.All() {
		if _, err := k.Program(); err != nil {
			return err
		}
	}
	sim.ConfigureDefault(sim.WithWorkers(sweepWorkers))
	perf.ResetPlanCache()
	fmt.Fprintln(os.Stderr, readyLine)
	if setupOnly {
		return nil
	}

	text, st := runFigureArtifacts()
	snap := sim.Default().Snapshot()
	reg := obs.Default()
	st.DetailInsts = reg.Counter("icicle_rocket_insts_retired_total", "").Value() +
		reg.Counter("icicle_boom_insts_retired_total", "").Value()
	st.Jobs, st.Hits = snap.Jobs, snap.Hits
	st.SimWallSec, st.SlowestSec = snap.SimWall.Seconds(), snap.Slowest.Seconds()
	st.CoreBuilds, st.CoreReuses = snap.CoreBuilds, snap.CoreReuses
	st.AllocBytes, st.GCCycles = snap.AllocBytes, snap.NumGC
	if _, err := io.WriteString(os.Stdout, text); err != nil {
		return err
	}
	return writeJSON(statsPath, st)
}

// readyLine is what a child prints on stderr once its set-up is done.
const readyLine = "perfbench: ready"

// sweepRound is one figure-sweep round as the parent saw it.
type sweepRound struct {
	setup time.Duration
	text  string
	stats sweepStats
	rssMB float64
}

// runSweepRound starts a fresh child, waits for it, and collects its text,
// stats, set-up time and peak RSS. A setupOnly child stops once ready.
func runSweepRound(e *env, i int, setupOnly bool) (sweepRound, error) {
	var r sweepRound
	statsPath := filepath.Join(e.work, fmt.Sprintf("sweep-%d.json", i))
	cmd := exec.Command(e.self, "sweep-child", "-stats", statsPath, fmt.Sprintf("-setup-only=%t", setupOnly))
	cmd.SysProcAttr = childAttr()
	var out bytes.Buffer
	cmd.Stdout = &out
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return r, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return r, err
	}
	var tail []string
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		if line == readyLine && r.setup == 0 {
			r.setup = time.Since(start)
			continue
		}
		tail = append(tail, line)
	}
	if err := cmd.Wait(); err != nil {
		return r, fmt.Errorf("sweep child: %w: %s", err, strings.Join(tail, "\n"))
	}
	if setupOnly {
		return r, nil
	}
	r.rssMB = peakRSSMB(cmd.ProcessState)
	r.text = out.String()
	data, err := os.ReadFile(statsPath)
	if err != nil {
		return r, err
	}
	return r, json.Unmarshal(data, &r.stats)
}

// checkFigure compares each artifact section of text with the golden.
func checkFigure(c *checker, text, golden string) {
	got, want := splitSections(stripWall(text)), splitSections(golden)
	for _, a := range artifacts() {
		switch g, ok := got[a.name]; {
		case !ok:
			c.fail("figure %s: missing from output", a.name)
		case g != want[a.name]:
			c.fail("figure %s: text differs from golden", a.name)
		default:
			c.ok()
		}
	}
}

// splitSections cuts sweep text into artifact sections by their headers.
func splitSections(text string) map[string]string {
	out := map[string]string{}
	parts := strings.Split(text, "\n==== ")
	for _, p := range parts[1:] {
		name, body, _ := strings.Cut(p, " ====\n")
		out[name] = body
	}
	return out
}

// figureSweep runs fresh-process sweeps until the time budget is spent.
func figureSweep(e *env) (*outcome, error) {
	o := newOutcome()
	var setups, walls, rss, minst, half, most []float64
	var last sweepStats
	for i := 0; i < extraSetups; i++ {
		r, err := runSweepRound(e, i, true)
		if err != nil {
			return nil, err
		}
		setups = append(setups, r.setup.Seconds())
	}
	for i, rs := 0, e.rounds(); rs.next(); i++ {
		r, err := runSweepRound(e, i, false)
		if err != nil {
			return nil, err
		}
		for name, msg := range r.stats.ArtifactErrs {
			o.check.fail("figure %s: %s", name, msg)
		}
		checkFigure(&o.check, r.text, e.gold.Figure)
		setups = append(setups, r.setup.Seconds())
		walls = append(walls, r.stats.WallSec)
		rss = append(rss, r.rssMB)
		minst = append(minst, float64(r.stats.DetailInsts)/1e6/r.stats.WallSec)
		// A sweep's latency is how long its user waits for results:
		// until half, and until 90%, of the artifacts are done.
		done := r.stats.DoneSec
		half = append(half, 1e3*done[rankOf(len(done), 0.5)])
		most = append(most, 1e3*done[rankOf(len(done), 0.9)])
		last = r.stats
	}
	o.m.set("setup_s", median(setups), "s")
	o.m.set("wall_s", median(walls), "s")
	o.m.set("minst_per_s", median(minst), "Minst/s")
	o.m.set("latency_p50_ms", median(half), "ms")
	o.m.set("latency_p90_ms", median(most), "ms")
	o.m.set("peak_rss_mb", median(rss), "MB")
	o.roundWalls(walls)

	// Layer view of the last sweep: how evenly the sim workers were
	// loaded, how much the memo and core pool saved, and where time went.
	if last.WallSec > 0 {
		o.m.set("sim.busy_frac", last.SimWallSec/(sweepWorkers*last.WallSec), "frac")
	}
	o.m.set("sim.slowest_job_s", last.SlowestSec, "s")
	if last.Jobs > 0 {
		o.m.set("sim.memo_hit_ratio", float64(last.Hits)/float64(last.Jobs), "frac")
	}
	if n := last.CoreBuilds + last.CoreReuses; n > 0 {
		o.m.set("sim.core_reuse_ratio", float64(last.CoreReuses)/float64(n), "frac")
	}
	for name, s := range last.ArtifactSec {
		o.m.set("experiments."+name+"_s", s, "s")
	}
	o.m.set("runtime.alloc_mb", float64(last.AllocBytes)/(1<<20), "MB")
	o.m.set("runtime.gc_cycles", float64(last.GCCycles), "count")
	return o, nil
}
