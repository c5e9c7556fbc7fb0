// Two-phase sampled-engine smoke: the golden serial-vs-parallel
// equivalence table. For every (config, program, policy) row the plan
// engine runs once with one window worker (the serial reference) and
// once with several; the two reports must be bit-identical — every
// float, every window, every tally — because the engine's reduce is
// schedule-ordered and each window result is a pure function of its
// spec. The sim runner's own fan-out (window workers from its free core
// budget, whatever the job's SamplePar says) is checked against the same
// reference. `make sample-par-smoke` (part of `make ci`) runs this under
// the race detector so the worker fan-out is exercised with checking on.
package icicle_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"icicle/internal/asm"
	"icicle/internal/boom"
	"icicle/internal/kernel"
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
			runPar := func(w int) *sample.Report {
				t.Helper()
				var rep *sample.Report
				if row.core == "rocket" {
					_, rep, _, err = perf.SampleRocketPar(rocket.DefaultConfig(), k, row.policy, sample.Options{}, w)
				} else {
					_, rep, _, err = perf.SampleBoomPar(boom.NewConfig(row.boom), k, row.policy, sample.Options{}, w)
				}
				if err != nil {
					t.Fatalf("%d workers: %v", w, err)
				}
				return rep
			}
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
			var j sim.Job
			var want sim.Result
			if row.core == "rocket" {
				j = sim.RocketJob(rocket.DefaultConfig(), k)
				want.Rocket, want.Sampled, want.Breakdown, err = perf.SampleRocketPar(rocket.DefaultConfig(), k, row.policy, sample.Options{}, 1)
			} else {
				j = sim.BoomJob(boom.NewConfig(row.boom), k)
				want.Boom, want.Sampled, want.Breakdown, err = perf.SampleBoomPar(boom.NewConfig(row.boom), k, row.policy, sample.Options{}, 1)
			}
			if err != nil {
				t.Fatal(err)
			}
			j = j.WithParallelSampling(row.policy, 1)
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
