// Two-phase sampled-engine smoke: the golden serial-vs-parallel
// equivalence table. For every (config, program, policy) row the plan
// engine runs once with one window worker (the serial reference) and
// once with several; the two reports must be bit-identical — every
// float, every window, every tally — because the engine's reduce is
// schedule-ordered and each window result is a pure function of its
// spec. The sim runner's own fan-out (window workers from its free core
// budget, whatever the job's SamplePar says) is checked against the same
// reference. So is the window memo's sharing across sampling periods,
// and the instruction bound that decides when windows may be shared.
// `make sample-par-smoke` (part of `make ci`) runs this under the race
// detector so the worker fan-out is exercised with checking on.
package icicle_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"icicle/internal/asm"
	"icicle/internal/boom"
	"icicle/internal/kernel"
	"icicle/internal/obs"
	"icicle/internal/perf"
	"icicle/internal/rocket"
	"icicle/internal/sample"
	"icicle/internal/sim"
)

// parGoldenRow is one golden-table entry: a core config, a program, and
// a sampling policy the serial and parallel runs must agree on exactly.
type parGoldenRow struct {
	core   string // "rocket" or a BOOM size name
	boom   boom.Size
	kernel string
	policy sample.Policy
}

func parGoldenTable() []parGoldenRow {
	def := sample.Default()
	dense := sample.Policy{Window: 1024, Period: 24576, Warmup: 8192}
	return []parGoldenRow{
		{core: "rocket", kernel: "towers", policy: def},
		{core: "rocket", kernel: "mm", policy: dense},
		{core: "LargeBOOM", boom: boom.Large, kernel: "towers", policy: def},
		{core: "SmallBOOM", boom: boom.Small, kernel: "bfs", policy: def},
	}
}

func TestSampleParGoldenEquivalence(t *testing.T) {
	const workers = 4
	for _, row := range parGoldenTable() {
		row := row
		name := fmt.Sprintf("%s/%s/%s", row.core, row.kernel, row.policy)
		t.Run(name, func(t *testing.T) {
			k, err := kernel.ByName(row.kernel)
			if err != nil {
				t.Fatal(err)
			}
			runPar := func(w int) *sample.Report { return row.report(t, k, row.policy, w) }
			serial := runPar(1)
			checkSampleReport(t, row.core, serial)
			// The plan engine's conservation is exact: every instruction
			// ran functionally in the producer; the windows re-run a
			// subset in detail.
			if serial.FFInsts+serial.DetailedInsts != serial.TotalInsts {
				t.Errorf("plan engine conservation broken: FF %d + detailed %d != total %d",
					serial.FFInsts, serial.DetailedInsts, serial.TotalInsts)
			}
			par := runPar(workers)
			if !reflect.DeepEqual(serial, par) {
				t.Fatalf("parallel report differs from serial reference:\nserial: est %d windows %d tally %v\npar:    est %d windows %d tally %v",
					serial.EstCycles, len(serial.Windows), serial.Tally,
					par.EstCycles, len(par.Windows), par.Tally)
			}
			// And the parallel run itself is deterministic across repeats.
			if again := runPar(workers); !reflect.DeepEqual(par, again) {
				t.Fatal("repeated parallel run diverged")
			}
		})
	}
}

// TestSampleParInterleavedCores pins the pooled-core contract (the
// "windows are pure functions of their specs" half of the design): one
// shared core alternates between two different programs' windows — the
// way a pooled core hops between jobs — and every result must be
// bit-identical to the same window executed on a core dedicated to its
// program. A state leak across Attach (stale cache line, trained
// predictor entry, leftover memory frame) shows up as a diverging tally.
func TestSampleParInterleavedCores(t *testing.T) {
	p := sample.Default()
	o := sample.Options{Counts: perf.RocketCountsFn()}
	type prep struct {
		prog *kernel.Kernel
		plan *sample.Plan
	}
	var preps []prep
	for _, name := range []string{"towers", "mm"} {
		k, err := kernel.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := perf.PlanFor(k, p, sample.Options{})
		if err != nil {
			t.Fatal(err)
		}
		preps = append(preps, prep{prog: k, plan: plan})
	}

	target := func(c *rocket.Core) sample.Target {
		return sample.Target{Core: c, CPU: c.CPU, Hier: c.Hier, Pred: c.Pred, Mem: c.Memory()}
	}

	// Reference: each program's windows on its own dedicated core, in
	// order, through one Exec.
	want := make([][]sample.WindowResult, len(preps))
	for pi, pr := range preps {
		prog, err := pr.prog.Program()
		if err != nil {
			t.Fatal(err)
		}
		c := rocket.New(rocket.DefaultConfig(), prog)
		ex, err := sample.NewExec(pr.plan, target(c), p.Window)
		if err != nil {
			t.Fatal(err)
		}
		for i := range pr.plan.Specs {
			wr, err := ex.Window(i, &o)
			if err != nil {
				t.Fatal(err)
			}
			want[pi] = append(want[pi], wr)
		}
	}

	// Interleaved: one shared core ping-pongs between the programs,
	// resetting and rebuilding its Exec on every hop exactly like the
	// sim pool does when a core is handed to a different job.
	shared := rocket.New(rocket.DefaultConfig(), mustProgram(t, preps[0].prog))
	maxW := len(want[0])
	if len(want[1]) > maxW {
		maxW = len(want[1])
	}
	for i := 0; i < maxW; i++ {
		for pi, pr := range preps {
			if i >= len(want[pi]) {
				continue
			}
			shared.Reset(mustProgram(t, pr.prog))
			ex, err := sample.NewExec(pr.plan, target(shared), p.Window)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ex.Window(i, &o)
			if err != nil {
				t.Fatalf("%s window %d on shared core: %v", pr.prog.Name, i, err)
			}
			if !reflect.DeepEqual(got, want[pi][i]) {
				t.Errorf("%s window %d diverged on the shared core: cycles %d vs %d, insts %d vs %d",
					pr.prog.Name, i, got.Cycles, want[pi][i].Cycles, got.Insts, want[pi][i].Insts)
			}
		}
	}
}

func mustProgram(t *testing.T, k *kernel.Kernel) *asm.Program {
	t.Helper()
	prog, err := k.Program()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestSampleParRunnerFanOut: a SamplePar 1 job alone on a 4-worker
// runner runs its windows on more than one core, and its result is still
// the one-worker reference, down to the store blob.
func TestSampleParRunnerFanOut(t *testing.T) {
	for _, row := range []parGoldenRow{
		{core: "rocket", kernel: "towers", policy: sample.Default()},
		{core: "SmallBOOM", boom: boom.Small, kernel: "bfs", policy: sample.Default()},
	} {
		t.Run(row.core+"/"+row.kernel, func(t *testing.T) {
			k, err := kernel.ByName(row.kernel)
			if err != nil {
				t.Fatal(err)
			}
			j := row.job(k, row.policy)
			want := row.par(t, k, row.policy, 1)
			want.Job = j

			r := sim.New(sim.WithWorkers(4), sim.WithoutCache())
			got := r.RunOne(j)
			if got.Err != nil {
				t.Fatal(got.Err)
			}
			if w := r.Stats().WindowWorkers; w < 2 {
				t.Fatalf("lone SamplePar 1 job on a 4-worker runner got %d window worker(s), want > 1", w)
			}
			if !reflect.DeepEqual(got.Sampled, want.Sampled) {
				t.Fatalf("runner report differs from the one-worker reference:\ngot  est %d windows %d\nwant est %d windows %d",
					got.Sampled.EstCycles, len(got.Sampled.Windows), want.Sampled.EstCycles, len(want.Sampled.Windows))
			}
			// gob writes maps in random order, so two encodings of one
			// result differ byte for byte; compare the blobs by length
			// and by what they decode to.
			gotBlob, err := sim.EncodeResult(got)
			if err != nil {
				t.Fatal(err)
			}
			wantBlob, err := sim.EncodeResult(want)
			if err != nil {
				t.Fatal(err)
			}
			if len(gotBlob) != len(wantBlob) {
				t.Fatalf("store blob is %d bytes, one-worker reference %d", len(gotBlob), len(wantBlob))
			}
			gotBack, err := sim.DecodeResult(gotBlob, j)
			if err != nil {
				t.Fatal(err)
			}
			wantBack, err := sim.DecodeResult(wantBlob, j)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotBack, wantBack) {
				t.Fatal("runner store blob decodes differently from the one-worker reference")
			}
		})
	}
}

// TestSampleParRunnerSlotBudget: concurrent plan-engine jobs share the
// runner's core budget. Together they never hold more slots than the
// runner has workers, every job finishes, and every report matches the
// same job run alone on a one-worker runner.
func TestSampleParRunnerSlotBudget(t *testing.T) {
	const workers = 3
	dense := sample.Policy{Window: 1024, Period: 24576, Warmup: 8192}
	var jobs []sim.Job
	for _, name := range []string{"towers", "mm", "bfs"} {
		k, err := kernel.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []sample.Policy{sample.Default(), dense} {
			jobs = append(jobs, sim.RocketJob(rocket.DefaultConfig(), k).WithParallelSampling(p, 64))
		}
	}

	r := sim.New(sim.WithWorkers(workers), sim.WithoutCache())
	got := make([]sim.Result, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = r.RunOne(j)
		}()
	}
	wg.Wait()

	st := r.Stats()
	if st.PeakSlots > workers {
		t.Fatalf("concurrent jobs held %d slots on a %d-worker runner", st.PeakSlots, workers)
	}
	if st.PeakSlots < 2 {
		t.Errorf("peak of %d slot(s) held: the jobs never ran side by side", st.PeakSlots)
	}
	serial := sim.New(sim.WithWorkers(1), sim.WithoutCache())
	for i, j := range jobs {
		if got[i].Err != nil {
			t.Fatalf("%s: %v", j.Key(), got[i].Err)
		}
		want := serial.RunOne(j)
		if want.Err != nil {
			t.Fatal(want.Err)
		}
		if !reflect.DeepEqual(got[i].Sampled, want.Sampled) {
			t.Errorf("%s: concurrent report differs from the one-worker run", j.Key())
		}
	}
	if w := serial.Stats().WindowWorkers; w != uint64(len(jobs)) {
		t.Errorf("one-worker runner granted %d window workers over %d jobs, want one each", w, len(jobs))
	}
}

// reuseCores are the three grid cores of the cross-period tests.
var reuseCores = []parGoldenRow{
	{core: "rocket"},
	{core: "SmallBOOM", boom: boom.Small},
	{core: "LargeBOOM", boom: boom.Large},
}

// bindingPolicy schedules windows LargeBOOM can fill to their
// instruction bound: 2048 cycles retire up to 6144 instructions, far
// past MaxInsts = 4096 - 2048.
var bindingPolicy = sample.Policy{Window: 2048, Period: 4096, Warmup: 2048}

func periodPolicy(period uint64) sample.Policy {
	p := sample.Default()
	p.Period = period
	return p
}

// job is the row's plan-engine runner job under p.
func (row parGoldenRow) job(k *kernel.Kernel, p sample.Policy) sim.Job {
	if row.core == "rocket" {
		return sim.RocketJob(rocket.DefaultConfig(), k).WithParallelSampling(p, 1)
	}
	return sim.BoomJob(boom.NewConfig(row.boom), k).WithParallelSampling(p, 1)
}

// par runs the row's core under p on the plan engine with workers fresh
// cores and no window memo; one worker is the serial reference.
func (row parGoldenRow) par(t *testing.T, k *kernel.Kernel, p sample.Policy, workers int) sim.Result {
	t.Helper()
	prog := mustProgram(t, k)
	var res sim.Result
	var err error
	if row.core == "rocket" {
		cs := make([]*rocket.Core, workers)
		for i := range cs {
			cs[i] = rocket.New(rocket.DefaultConfig(), prog)
		}
		res.Rocket, res.Sampled, res.Breakdown, err = perf.SampleRocketParOn(cs, k, p, sample.Options{}, nil)
	} else {
		cs := make([]*boom.Core, workers)
		for i := range cs {
			cs[i] = boom.MustNew(boom.NewConfig(row.boom), prog)
		}
		res.Boom, res.Sampled, res.Breakdown, err = perf.SampleBoomParOn(cs, k, p, sample.Options{}, nil)
	}
	if err != nil {
		t.Fatalf("%d workers: %v", workers, err)
	}
	return res
}

// report is the row's plan-engine report under p on workers fresh cores.
func (row parGoldenRow) report(t *testing.T, k *kernel.Kernel, p sample.Policy, workers int) *sample.Report {
	t.Helper()
	return row.par(t, k, p, workers).Sampled
}

// target is a fresh core of the row's config running k, as a plan target.
func (row parGoldenRow) target(t *testing.T, k *kernel.Kernel) sample.Target {
	t.Helper()
	prog := mustProgram(t, k)
	if row.core == "rocket" {
		c := rocket.New(rocket.DefaultConfig(), prog)
		return sample.Target{Core: c, CPU: c.CPU, Hier: c.Hier, Pred: c.Pred, Mem: c.Memory()}
	}
	c := boom.MustNew(boom.NewConfig(row.boom), prog)
	return sample.Target{Core: c, CPU: c.CPU, Hier: c.Hier, Pred: c.Pred, Mem: c.Memory()}
}

// windowKeyLog is a sim.ResultStore that keeps nothing and records the
// keys of the window results it is asked to persist.
type windowKeyLog struct {
	mu   sync.Mutex
	keys []string
}

func (l *windowKeyLog) Get(string) ([]byte, bool) { return nil, false }

func (l *windowKeyLog) Put(key string, _ []byte) error {
	if strings.HasPrefix(key, "win|") {
		l.mu.Lock()
		l.keys = append(l.keys, key)
		l.mu.Unlock()
	}
	return nil
}

// take returns the keys logged since the last take.
func (l *windowKeyLog) take() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	keys := l.keys
	l.keys = nil
	return keys
}

// runMeasured runs j on r and returns its report and the windows it
// executed (window-memo misses), checking the report against want.
func runMeasured(t *testing.T, r *sim.Runner, j sim.Job, want *sample.Report) (*sample.Report, uint64) {
	t.Helper()
	before := r.Stats().WindowMisses
	got := r.RunOne(j)
	if got.Err != nil {
		t.Fatalf("%s: %v", j.Key(), got.Err)
	}
	if !reflect.DeepEqual(got.Sampled, want) {
		t.Fatalf("%s: report differs from the memo-less one-worker reference:\ngot  est %d windows %d\nwant est %d windows %d",
			j.Key(), got.Sampled.EstCycles, len(got.Sampled.Windows), want.EstCycles, len(want.Windows))
	}
	return got.Sampled, r.Stats().WindowMisses - before
}

// spanArgs returns the numeric args of every span named name, in the
// order the spans were recorded.
func spanArgs(t *testing.T, tr *obs.Tracer, name string) []map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string
			Args map[string]any
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	var out []map[string]float64
	for _, ev := range file.TraceEvents {
		if ev.Name != name {
			continue
		}
		args := map[string]float64{}
		for k, v := range ev.Args {
			if f, ok := v.(float64); ok {
				args[k] = f
			}
		}
		out = append(out, args)
	}
	return out
}

// checkKeys asserts every logged window key has the current version and
// ends in the given bound field.
func checkKeys(t *testing.T, keys []string, bound string) {
	t.Helper()
	if len(keys) == 0 {
		t.Fatal("no window keys were persisted")
	}
	for _, key := range keys {
		if !strings.HasPrefix(key, "win|v2|") || !strings.HasSuffix(key, "|"+bound) {
			t.Fatalf("window key %q: want prefix win|v2| and bound field %s", key, bound)
		}
	}
}

// TestSampleParCrossPeriodReuse: a period sweep shares its windows. At
// periods 24576, 49152 and 98304 the default policy starts every window
// of the longer periods where a 24576 window starts, with the same warm
// span, and no grid core can reach the 8192-instruction bound in 2048
// cycles. So on a fresh runner with the memo on, the second and third
// periods execute no window, and every report still equals the
// memo-less reference.
func TestSampleParCrossPeriodReuse(t *testing.T) {
	k, err := kernel.ByName("towers")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range reuseCores {
		t.Run(row.core, func(t *testing.T) {
			keys := &windowKeyLog{}
			tr := obs.NewTracer()
			r := sim.New(sim.WithWorkers(2), sim.WithResultStore(keys), sim.WithTracer(tr))
			var windows []int
			for i, period := range []uint64{24576, 49152, 98304} {
				p := periodPolicy(period)
				rep, ran := runMeasured(t, r, row.job(k, p), row.report(t, k, p, 1))
				if i > 0 && ran != 0 {
					t.Errorf("period %d executed %d of its %d windows; all were run at period 24576", period, ran, len(rep.Windows))
				}
				if i == 0 {
					checkKeys(t, keys.take(), "b-")
				}
				windows = append(windows, len(rep.Windows))
			}
			// Each job's span says where its windows came from.
			spans := spanArgs(t, tr, "simulate-sampled-par")
			if len(spans) != len(windows) {
				t.Fatalf("%d simulate-sampled-par spans for %d jobs", len(spans), len(windows))
			}
			for i, args := range spans {
				memo, run := args["windows_memo"], args["windows_run"]
				if memo+run != float64(windows[i]) || (i > 0 && run != 0) {
					t.Errorf("job %d span: windows_memo %v + windows_run %v, want %d windows, none run after the first job",
						i, memo, run, windows[i])
				}
			}
		})
	}
}

// TestSampleParBindingBound: where the core can reach a window's
// instruction bound, the bound stays in the key. LargeBOOM under
// bindingPolicy, then at period 8192 (MaxInsts 6144, still within the
// 6248 instructions LargeBOOM can execute in 2048 cycles: 3 retired per
// cycle plus 96 ROB and 8 fetch-buffer entries of fetch-ahead): the second
// policy's windows start where the first's do, with the same warm span,
// yet must all run, and both reports must equal their references.
func TestSampleParBindingBound(t *testing.T) {
	k, err := kernel.ByName("towers")
	if err != nil {
		t.Fatal(err)
	}
	row := reuseCores[2]
	keys := &windowKeyLog{}
	r := sim.New(sim.WithWorkers(2), sim.WithResultStore(keys))
	if _, ran := runMeasured(t, r, row.job(k, bindingPolicy), row.report(t, k, bindingPolicy, 1)); ran == 0 {
		t.Fatal("binding policy executed no window")
	}
	checkKeys(t, keys.take(), "b2048")

	wider := bindingPolicy
	wider.Period = 8192
	rep, ran := runMeasured(t, r, row.job(k, wider), row.report(t, k, wider, 1))
	if ran != uint64(len(rep.Windows)) {
		t.Errorf("period 8192 executed %d of its %d windows: a binding bound was shared", ran, len(rep.Windows))
	}
	checkKeys(t, keys.take(), "b6144")
}

// TestSampleParHugeWindow: a window of 1<<63 cycles keeps the bound in
// its key (WindowInstBound saturates rather than wrapping on LargeBOOM),
// runs without a panic, and matches the reference.
func TestSampleParHugeWindow(t *testing.T) {
	k, err := kernel.ByName("towers")
	if err != nil {
		t.Fatal(err)
	}
	p := sample.Policy{Window: 1 << 63, Period: 4096, Warmup: 3072}
	for _, row := range []parGoldenRow{reuseCores[0], reuseCores[2]} {
		t.Run(row.core, func(t *testing.T) {
			core := row.target(t, k).Core
			if b := core.WindowInstBound(math.MaxUint64); b != math.MaxUint64 {
				t.Errorf("WindowInstBound(MaxUint64) = %d, want saturation", b)
			}
			keys := &windowKeyLog{}
			r := sim.New(sim.WithWorkers(2), sim.WithResultStore(keys))
			runMeasured(t, r, row.job(k, p), row.report(t, k, p, 1))
			checkKeys(t, keys.take(), "b1024")
		})
	}
}

// TestSampleParWindowInstBound checks the fetch-ahead margin rather than
// assuming it: after every window of the panel, the instructions the
// core's CPU executed since the window started (InstRet minus the
// window's start) stay within WindowInstBound(Window), and those beyond
// the ones the window retired stay within WindowInstBound(0), the
// margin alone. bfs keeps every core's fetch running the full margin
// ahead, and the panel covers the default policy and bindingPolicy,
// whose windows stop at their bound with fetch still ahead. Some window
// must execute past what it retired, or a retire-only bound would pass
// this test unchallenged.
func TestSampleParWindowInstBound(t *testing.T) {
	k, err := kernel.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range reuseCores {
		for _, p := range []sample.Policy{periodPolicy(24576), bindingPolicy} {
			t.Run(row.core+"/"+p.String(), func(t *testing.T) {
				plan, err := perf.PlanFor(k, p, sample.Options{})
				if err != nil {
					t.Fatal(err)
				}
				tg := row.target(t, k)
				ex, err := sample.NewExec(plan, tg, p.Window)
				if err != nil {
					t.Fatal(err)
				}
				bound, margin := tg.Core.WindowInstBound(p.Window), tg.Core.WindowInstBound(0)
				var ahead uint64
				for i, spec := range plan.Specs {
					wr, err := ex.Window(i, &sample.Options{})
					if err != nil {
						t.Fatal(err)
					}
					ran := tg.CPU.InstRet - spec.StartInst
					if ran > bound || ran < wr.Insts || ran-wr.Insts > margin {
						t.Fatalf("window %d: CPU executed %d instructions, retired %d; bound %d, fetch-ahead margin %d",
							i, ran, wr.Insts, bound, margin)
					}
					ahead = max(ahead, ran-wr.Insts)
				}
				if ahead == 0 {
					t.Errorf("no window executed past what it retired (margin %d)", margin)
				}
				t.Logf("%d windows, most fetch-ahead %d of margin %d", len(plan.Specs), ahead, margin)
			})
		}
	}
}
