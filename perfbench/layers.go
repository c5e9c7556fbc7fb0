package main

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"icicle/internal/asm"
	"icicle/internal/boom"
	"icicle/internal/core"
	"icicle/internal/kernel"
	"icicle/internal/perf"
	"icicle/internal/rocket"
	"icicle/internal/sample"
	"icicle/internal/serve"
	"icicle/internal/sim"
	"icicle/internal/store"
)

// The traced run's probe measures each layer from outside, by timing
// calls into its public functions, and attributes two cold requests —
// one sampled, one full-detail — to the layers they cross.

// probeBudget is the part of a traced run's budget the probe reserves.
const probeBudget = 12 * time.Second

// untracedSamples is how many cold requests (each on a fresh server)
// give the untraced median a probe request is attributed against, and
// replays how often the job is replayed in process (each layer reports
// its median self time).
const (
	untracedSamples = 9
	replays         = 5
)

// panelReps is how often each kernel-panel cell is simulated.
const panelReps = 3

// panel is the detailed-loop kernel panel: one kernel per class.
var panel = []struct{ class, kernel string }{
	{"alu", "multiply"}, {"branch", "qsort"}, {"mem", "spmv"},
}

// Probe requests: a cold sampled SPEC proxy and a cold full-detail micro
// kernel, both members of the golden sets.
var probeRequests = []struct{ name, label string }{
	{"sampled", "sampled|rocket|505.mcf_r|p49152"},
	{"full", "cold|qsort|cfg0"},
}

func probe(e *env, o *outcome) error {
	if err := kernelPanel(o.m); err != nil {
		return err
	}
	defs := map[string]jobDef{}
	for _, d := range allGoldenJobs() {
		defs[d.Label] = d
	}
	for _, r := range probeRequests {
		if err := attribute(e, o, r.name, defs[r.label]); err != nil {
			return fmt.Errorf("attribute %s request: %w", r.name, err)
		}
	}
	return sampledWindows(o.m, defs[probeRequests[0].label])
}

// kernelPanel times the detailed cores' Reset, RunCycles and the TMA
// tally on one kernel per class, on Rocket and LargeBOOM.
func kernelPanel(m metrics) error {
	var tally []time.Duration
	for _, coreName := range []string{"rocket", "boom"} {
		var resets []time.Duration
		for _, p := range panel {
			k, err := kernel.ByName(p.kernel)
			if err != nil {
				return err
			}
			prog, err := k.Program()
			if err != nil {
				return err
			}
			var runs []time.Duration
			var insts, cycles, skipped uint64
			for rep := 0; rep < panelReps; rep++ {
				var reset, run, tl time.Duration
				if coreName == "rocket" {
					c := rocket.New(rocket.DefaultConfig(), prog)
					reset = timeIt(func() { c.Reset(prog) })
					var err error
					run = timeIt(func() { err = c.RunCycles() })
					if err != nil {
						return err
					}
					tl = timeIt(func() { _, _, err = perf.TallyRocket(c) })
					insts, cycles = c.Insts(), c.Cycles()
					skipped, _ = c.SkipStats()
				} else {
					c, err := boom.New(boom.NewConfig(boom.Large), prog)
					if err != nil {
						return err
					}
					reset = timeIt(func() { c.Reset(prog) })
					run = timeIt(func() { err = c.RunCycles() })
					if err != nil {
						return err
					}
					tl = timeIt(func() { _, _, err = perf.TallyBoom(c) })
					insts, cycles = c.Insts(), c.Cycles()
					skipped, _ = c.SkipStats()
				}
				resets, runs, tally = append(resets, reset), append(runs, run), append(tally, tl)
			}
			m.set(fmt.Sprintf("%s.ns_per_inst.%s", coreName, p.class), float64(medianDuration(runs))/float64(insts), "ns/inst")
			m.set(fmt.Sprintf("%s.skip_frac.%s", coreName, p.class), float64(skipped)/float64(cycles), "frac")
		}
		m.set(coreName+".reset_us", us(medianDuration(resets)), "us")
	}
	m.set("perf.tally_us", us(medianDuration(tally)), "us")
	return nil
}

func timeIt(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// attribute measures one cold request three ways: its untraced median
// over HTTP (each request to a fresh server); one traced HTTP request,
// split by the server's own job timer into the job and the HTTP, JSON
// and queue time around it; and the job replayed one layer call at a
// time in fresh processes, cold like a fresh server.
//
// The layers' self times plus serve.remainder_ms make up the untraced
// median. The remainder's measured part is serve.http_ms; what is left
// beyond it shows as trace.sum_error_frac, the share of the request the
// attribution misses (negative) or overstates (positive).
func attribute(e *env, o *outcome, name string, d jobDef) error {
	var lats []time.Duration
	for i := 0; i < untracedSamples; i++ {
		srv, err := startServer(e, filepath.Join(e.work, fmt.Sprintf("probe-%s-%d", name, i)))
		if err != nil {
			return err
		}
		t0 := time.Now()
		jr, err := srv.submit(d.Spec, 0)
		lat := time.Since(t0)
		srv.stop()
		if err != nil {
			return err
		}
		o.check.job(e.gold, d.Label, jr)
		lats = append(lats, lat)
	}
	untraced := medianDuration(lats)

	srv, err := startServer(e, filepath.Join(e.work, "probe-"+name+"-traced"))
	if err != nil {
		return err
	}
	before, err := srv.scrape()
	if err != nil {
		srv.stop()
		return err
	}
	t0 := time.Now()
	jr, err := srv.submit(d.Spec, 0)
	e2e := time.Since(t0)
	after, scrapeErr := srv.scrape()
	srv.stop()
	if err != nil {
		return err
	}
	if scrapeErr != nil {
		return scrapeErr
	}
	o.check.job(e.gold, d.Label, jr)
	delta := after.Delta(before)
	exec := secondsDuration(delta.Hist("icicle_serve_job_latency_seconds").Sum)
	queue := secondsDuration(delta.Hist("icicle_serve_queue_wait_seconds").Sum)
	http := e2e - exec

	var runs [][]layerTime
	var r replayOut
	for i := 0; i < replays; i++ {
		dir := filepath.Join(e.work, fmt.Sprintf("probe-%s-replay-%d", name, i))
		if r, err = replay(e, d, dir); err != nil {
			return err
		}
		if want := e.gold.Jobs[d.Label]; r.Digest != want {
			o.check.fail("%s replay: digest %s, golden %s", d.Label, r.Digest, want)
		} else {
			o.check.ok()
		}
		runs = append(runs, r.Layers)
	}
	layers := medianLayers(runs)
	self := func(layer string) time.Duration {
		for _, l := range layers {
			if l.Name == layer {
				return l.Self
			}
		}
		return 0
	}

	p := "attr." + name + "."
	var parts []string
	for _, l := range layers {
		o.m.set(p+l.Name+"_ms", ms(l.Self), "ms")
		parts = append(parts, fmt.Sprintf("%s %.3f", l.Name, ms(l.Self)))
	}
	rem := untraced - sumLayers(layers)
	o.m.set(p+"untraced_ms", ms(untraced), "ms")
	o.m.set("serve.remainder_ms."+name, ms(rem), "ms")
	o.m.set("serve.http_ms."+name, ms(http), "ms")
	o.m.set("trace.overhead_frac."+name, float64(e2e-untraced)/float64(untraced), "frac")
	o.m.set("trace.sum_error_frac."+name, sumError(layers, http, untraced), "frac")
	o.notes["attribution."+name] = fmt.Sprintf(
		"untraced median %.3f ms = layers [%s] (sum %.3f) + remainder %.3f; measured HTTP part %.3f (queue wait %.3f); traced request %.3f, server job %.3f",
		ms(untraced), strings.Join(parts, ", "), ms(sumLayers(layers)), ms(rem), ms(http), ms(queue), ms(e2e), ms(exec))

	switch name {
	case "sampled":
		o.m.set("sample.plan_ms", ms(self("plan")), "ms")
		o.m.set("sample.plan_share", float64(self("plan"))/float64(untraced), "frac")
		o.m.set("isa.ns_per_inst", float64(self("plan"))/float64(r.PlanInsts), "ns/inst")
		o.m.set("isa.sb_hit_ratio", r.SBHitRatio, "frac")
		o.m.set("sample.window_us.rocket", us(self("windows"))/float64(r.Windows), "us")
		o.m.set("sample.merge_us", us(self("merge")), "us")
		if _, ok := o.m["sample.detail_frac"]; !ok {
			o.m.set("sample.detail_frac", r.DetailFrac, "frac")
		}
		o.m.set("sim.encode_us", us(self("encode")), "us")
		o.m.set("store.put_us", us(self("store_put")), "us")
		return warmPath(o.m, filepath.Join(e.work, fmt.Sprintf("probe-%s-replay-0", name)), d)
	case "full":
		o.m.set("rocket.new_us", us(self("core_new")), "us")
		o.m.set("asm.assemble_us", us(self("assemble")), "us")
	}
	return nil
}

// replayOut is what one replay child measured.
type replayOut struct {
	Layers     []layerTime
	Digest     string
	PlanInsts  uint64
	Windows    int
	SBHitRatio float64
	DetailFrac float64
}

// replay runs one probe job in a fresh child process and returns what the
// child measured.
func replay(e *env, d jobDef, dir string) (replayOut, error) {
	var r replayOut
	out := dir + ".json"
	cmd := exec.Command(e.self, "replay", "-label", d.Label, "-dir", dir, "-out", out)
	cmd.SysProcAttr = childAttr()
	if msg, err := cmd.CombinedOutput(); err != nil {
		return r, fmt.Errorf("replay %s: %w: %s", d.Label, err, msg)
	}
	return r, readJSON(out, &r)
}

// replayChild is the replay child process: it replays the labelled job
// once with per-layer timing, persisting into the store at dir, and
// writes a replayOut to out.
func replayChild(label, dir, out string) error {
	for _, d := range allGoldenJobs() {
		if d.Label != label {
			continue
		}
		t, err := traceJob(d, dir)
		if err != nil {
			return err
		}
		r := replayOut{Layers: t.layers, Digest: resultDigest(t.res), PlanInsts: t.planInsts, Windows: t.windows, SBHitRatio: t.sbHitRatio}
		if rep := t.res.Sampled; rep != nil && rep.TotalInsts > 0 {
			r.DetailFrac = float64(rep.DetailedInsts) / float64(rep.TotalInsts)
		}
		return writeJSON(out, r)
	}
	return fmt.Errorf("replay: unknown job %q", label)
}

// medianLayers takes each layer's median self time over replays that
// record the same layers in the same order.
func medianLayers(runs [][]layerTime) []layerTime {
	out := make([]layerTime, len(runs[0]))
	for i, l := range runs[0] {
		ds := make([]time.Duration, len(runs))
		for r, run := range runs {
			ds[r] = run[i].Self
		}
		out[i] = layerTime{l.Name, medianDuration(ds)}
	}
	return out
}

func secondsDuration(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// tracedJob is one job replayed with per-layer self times.
type tracedJob struct {
	layers     []layerTime
	res        sim.Result
	payload    []byte
	st         *store.Store
	planInsts  uint64
	windows    int
	sbHitRatio float64
}

func (t *tracedJob) timed(name string, f func() error) error {
	t0 := time.Now()
	err := f()
	t.layers = append(t.layers, layerTime{name, time.Since(t0)})
	return err
}

// traceJob replays what a cold Rocket request costs the server — decode
// the spec, assemble the kernel, miss the store, build a core, simulate
// (plan, reset, windows and merge when sampled; reset, cycle loop and
// tally when not), encode and persist — timing each layer call.
func traceJob(d jobDef, dir string) (*tracedJob, error) {
	t := &tracedJob{}
	body, err := json.Marshal(serve.SubmitRequest{Jobs: []serve.JobSpec{d.Spec}})
	if err != nil {
		return nil, err
	}
	var j sim.Job
	if err := t.timed("parse", func() error {
		var req serve.SubmitRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return err
		}
		j, err = req.Jobs[0].Job()
		return err
	}); err != nil {
		return nil, err
	}
	if j.Core != sim.Rocket {
		return nil, fmt.Errorf("traceJob: only Rocket requests are attributed")
	}
	// The cached program the plan builder uses must exist before timing,
	// or its assembly would land in the plan layer.
	if _, err := j.Kernel.Program(); err != nil {
		return nil, err
	}
	var prog *asm.Program
	if err := t.timed("assemble", func() (err error) {
		prog, err = asm.Assemble(j.Kernel.Source)
		return err
	}); err != nil {
		return nil, err
	}
	if t.st, err = store.Open(dir); err != nil {
		return nil, err
	}
	t.timed("store_get", func() error {
		t.st.Get(sim.StoreKey(j))
		return nil
	})
	var c *rocket.Core
	t.timed("core_new", func() error {
		c = rocket.New(j.Rocket, prog)
		return nil
	})
	t.res = sim.Result{Job: j}
	if j.Sample.Enabled() {
		err = t.sampled(j, c, prog)
	} else {
		t.timed("reset", func() error {
			c.Reset(prog)
			return nil
		})
		if err = t.timed("run", c.RunCycles); err == nil {
			err = t.timed("tally", func() (err error) {
				t.res.Rocket, t.res.Breakdown, err = perf.TallyRocket(c)
				return err
			})
		}
	}
	if err != nil {
		return nil, err
	}
	if err := t.timed("encode", func() (err error) {
		t.payload, err = sim.EncodeResult(t.res)
		return err
	}); err != nil {
		return nil, err
	}
	if err := t.timed("store_put", func() error { return t.st.Put(sim.StoreKey(j), t.payload) }); err != nil {
		return nil, err
	}
	return t, nil
}

// sampled replays the one-worker plan engine: a cold plan build, the
// core reset, then RunPlan with a memo that splits its time into window
// execution, window checkpoint I/O against the store, and the merge.
func (t *tracedJob) sampled(j sim.Job, c *rocket.Core, prog *asm.Program) error {
	o := sample.Options{
		Counts:     perf.RocketCountsFn(),
		TMA:        core.DefaultConfig(1, 1),
		EventNames: perf.RocketEventNames(),
		Telemetry:  sample.NewTelemetry(),
	}
	perf.ResetPlanCache()
	var plan *sample.Plan
	if err := t.timed("plan", func() (err error) {
		plan, err = perf.PlanFor(j.Kernel, j.Sample, o)
		return err
	}); err != nil {
		return err
	}
	sb := o.Telemetry
	if n := sb.SBHits.Value() + sb.SBMisses.Value(); n > 0 {
		t.sbHitRatio = float64(sb.SBHits.Value()) / float64(n)
	}
	t.planInsts = plan.TotalInsts
	t.timed("reset", func() error {
		c.Reset(prog)
		return nil
	})
	memo := &windowTimer{st: t.st}
	t0 := time.Now()
	rep, err := sample.RunPlan(plan, j.Sample, o, sample.Par{
		Targets:    []sample.Target{{Core: c, CPU: c.CPU, Hier: c.Hier, Pred: c.Pred, Mem: c.Memory()}},
		Memo:       memo,
		MemoPrefix: fmt.Sprintf("rocket|%+v|%s", c.Cfg, j.Kernel.Name),
	})
	if err != nil {
		return err
	}
	total := time.Since(t0)
	t.windows = memo.n
	t.layers = append(t.layers,
		layerTime{"windows", memo.exec},
		layerTime{"window_store", memo.io},
		layerTime{"merge", total - memo.exec - memo.io})
	t.res.Rocket = rocket.Result{Cycles: rep.EstCycles, Insts: rep.TotalInsts, Tally: rep.ScaledTallyMap(), Exit: rep.Exit}
	t.res.Breakdown, t.res.Sampled = rep.Breakdown, rep
	return nil
}

// windowTimer is a sample.WindowMemo that never hits. Like the server's
// store-backed window memo it looks each window up in the store and
// persists it afterwards; the gap between lookup and persist is the
// window's own execution.
type windowTimer struct {
	st       *store.Store // nil = no checkpoint I/O
	mu       sync.Mutex
	started  time.Time
	exec, io time.Duration
	n        int
}

const windowKeyPrefix = "win|"

func (w *windowTimer) Get(key string) (sample.WindowResult, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	t0 := time.Now()
	if w.st != nil {
		w.st.Get(windowKeyPrefix + key)
	}
	w.started = time.Now()
	w.io += w.started.Sub(t0)
	return sample.WindowResult{}, false
}

func (w *windowTimer) Put(key string, wr sample.WindowResult) {
	w.mu.Lock()
	defer w.mu.Unlock()
	t0 := time.Now()
	w.exec += t0.Sub(w.started)
	w.n++
	if w.st != nil {
		var buf bytes.Buffer
		if gob.NewEncoder(&buf).Encode(wr) == nil {
			w.st.Put(windowKeyPrefix+key, buf.Bytes())
		}
	}
	w.io += time.Since(t0)
}

// sampledWindows times the probe request's windows on the two BOOM
// sizes (the plan is cached by now, so only window execution differs).
func sampledWindows(m metrics, d jobDef) error {
	j, err := d.job()
	if err != nil {
		return err
	}
	prog, err := j.Kernel.Program()
	if err != nil {
		return err
	}
	for _, size := range []boom.Size{boom.Small, boom.Large} {
		c, err := boom.New(boom.NewConfig(size), prog)
		if err != nil {
			return err
		}
		o := sample.Options{Counts: perf.BoomCountsFn(c), TMA: core.DefaultConfig(c.Cfg.DecodeWidth, c.Cfg.IssueWidth), EventNames: perf.BoomEventNames(c)}
		plan, err := perf.PlanFor(j.Kernel, j.Sample, o)
		if err != nil {
			return err
		}
		c.Reset(prog)
		memo := &windowTimer{}
		if _, err := sample.RunPlan(plan, j.Sample, o, sample.Par{
			Targets: []sample.Target{{Core: c, CPU: c.CPU, Hier: c.Hier, Pred: c.Pred, Mem: c.Memory()}},
			Memo:    memo,
		}); err != nil {
			return err
		}
		name := "boom-small"
		if size == boom.Large {
			name = "boom-large"
		}
		m.set("sample.window_us."+name, us(memo.exec)/float64(memo.n), "us")
	}
	return nil
}

// warmPath times the layers a warm request or a blob read crosses, on
// the blob a replay persisted into dir: the verified store read, the
// result decode, and the API rendering.
func warmPath(m metrics, dir string, d jobDef) error {
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	j, err := d.job()
	if err != nil {
		return err
	}
	addr := store.Addr(sim.StoreKey(j))
	var get, dec, render []time.Duration
	var size int
	for i := 0; i < 20; i++ {
		var payload []byte
		var ok bool
		get = append(get, timeIt(func() { payload, ok = st.GetAddr(addr) }))
		if !ok {
			return fmt.Errorf("warm path: blob %s missing", addr)
		}
		size = len(payload)
		var res sim.Result
		dec = append(dec, timeIt(func() { res, err = sim.DecodeResult(payload, j) }))
		if err != nil {
			return err
		}
		render = append(render, timeIt(func() {
			_, err = json.Marshal(serve.StatusResponse{Results: []serve.JobResult{serve.ResultJSON(res, true)}})
		}))
		if err != nil {
			return err
		}
	}
	m.set("store.get_us", us(medianDuration(get)), "us")
	m.set("sim.decode_us", us(medianDuration(dec)), "us")
	m.set("serve.render_us", us(medianDuration(render)), "us")
	m.set("store.blob_kb", float64(size)/1024, "KB")
	return nil
}
