package sim

import (
	"reflect"
	"testing"

	"icicle/internal/boom"
	"icicle/internal/kernel"
	"icicle/internal/obs"
	"icicle/internal/perf"
	"icicle/internal/rocket"
	"icicle/internal/sample"
)

// TestParallelMatchesSerialRocketGrid runs the Fig. 7(a) Rocket grid once
// serially (direct perf calls, no runner) and once through a parallel
// runner, and requires byte-identical Breakdown rows and event totals.
func TestParallelMatchesSerialRocketGrid(t *testing.T) {
	cfg := rocket.DefaultConfig()
	micro := kernel.ByCategory(kernel.CatMicro)

	serialRows := make([]string, len(micro))
	serialTallies := make([]map[string]uint64, len(micro))
	for i, k := range micro {
		res, b, err := perf.RunRocket(cfg, k)
		if err != nil {
			t.Fatalf("serial %s: %v", k.Name, err)
		}
		serialRows[i] = b.Row(k.Name)
		serialTallies[i] = res.Tally
	}

	jobs := make([]Job, len(micro))
	for i, k := range micro {
		jobs[i] = RocketJob(cfg, k)
	}
	r := New(WithWorkers(8))
	for i, res := range r.Run(jobs) {
		k := micro[i]
		if res.Err != nil {
			t.Fatalf("parallel %s: %v", k.Name, res.Err)
		}
		if row := res.Breakdown.Row(k.Name); row != serialRows[i] {
			t.Errorf("%s breakdown diverges:\nserial:   %s\nparallel: %s",
				k.Name, serialRows[i], row)
		}
		if !reflect.DeepEqual(res.Rocket.Tally, serialTallies[i]) {
			t.Errorf("%s event totals diverge between serial and parallel runs", k.Name)
		}
	}
}

// TestParallelMatchesSerialBoomGrid is the same determinism check for the
// Fig. 7(k) LargeBOOM grid, including per-lane totals.
func TestParallelMatchesSerialBoomGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("BOOM grid is slow; skipped with -short")
	}
	cfg := boom.NewConfig(boom.Large)
	micro := kernel.ByCategory(kernel.CatMicro)

	serialRows := make([]string, len(micro))
	serialTallies := make([]map[string]uint64, len(micro))
	serialLanes := make([]map[string][]uint64, len(micro))
	for i, k := range micro {
		res, b, err := perf.RunBoom(cfg, k)
		if err != nil {
			t.Fatalf("serial %s: %v", k.Name, err)
		}
		serialRows[i] = b.Row(k.Name)
		serialTallies[i] = res.Tally
		serialLanes[i] = res.LaneTally
	}

	jobs := make([]Job, len(micro))
	for i, k := range micro {
		jobs[i] = BoomJob(cfg, k)
	}
	r := New(WithWorkers(8))
	for i, res := range r.Run(jobs) {
		k := micro[i]
		if res.Err != nil {
			t.Fatalf("parallel %s: %v", k.Name, res.Err)
		}
		if row := res.Breakdown.Row(k.Name); row != serialRows[i] {
			t.Errorf("%s breakdown diverges:\nserial:   %s\nparallel: %s",
				k.Name, serialRows[i], row)
		}
		if !reflect.DeepEqual(res.Boom.Tally, serialTallies[i]) {
			t.Errorf("%s event totals diverge between serial and parallel runs", k.Name)
		}
		if !reflect.DeepEqual(res.Boom.LaneTally, serialLanes[i]) {
			t.Errorf("%s per-lane totals diverge between serial and parallel runs", k.Name)
		}
	}
}

// TestUnpooledMatchesPooled: a runner without the core pool builds every
// core fresh, on the same executor as the pooled runner, and must return
// the same results for full-detail, serial-sampled and plan-engine jobs
// on Rocket and BOOM. It publishes the same core telemetry, too.
func TestUnpooledMatchesPooled(t *testing.T) {
	k, err := kernel.ByName("towers")
	if err != nil {
		t.Fatal(err)
	}
	pol := sample.Policy{Window: 1024, Period: 16384, Warmup: 2048}
	var jobs []Job
	for _, j := range []Job{RocketJob(rocket.DefaultConfig(), k), BoomJob(boom.NewConfig(boom.Small), k)} {
		jobs = append(jobs, j, j.WithSampling(pol), j.WithParallelSampling(pol, 1))
	}
	// Warm the process-wide pools first, so the pooled runner below
	// resets recycled cores.
	New(WithoutCache(), WithWorkers(2)).Run(jobs)
	pooled := New(WithoutCache(), WithWorkers(2))
	fresh := New(WithoutCache(), WithoutCorePool(), WithWorkers(2))
	want, got := pooled.Run(jobs), fresh.Run(jobs)
	for i, j := range jobs {
		if got[i].Err != nil || want[i].Err != nil {
			t.Fatalf("%s: unpooled err %v, pooled err %v", j.Key(), got[i].Err, want[i].Err)
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: unpooled result differs from pooled", j.Key())
		}
	}
	if n := fresh.Stats().CoreReuses; n != 0 {
		t.Errorf("unpooled runner reused %d cores", n)
	}
	for _, tel := range []struct {
		name        string
		fresh, pool *obs.CoreTelemetry
	}{{"rocket", fresh.m.rocket, pooled.m.rocket}, {"boom", fresh.m.boom, pooled.m.boom}} {
		fc, pc := tel.fresh.Cycles.Value(), tel.pool.Cycles.Value()
		fi, pi := tel.fresh.Insts.Value(), tel.pool.Insts.Value()
		if fc == 0 || fi == 0 || fc != pc || fi != pi {
			t.Errorf("%s telemetry: unpooled %d cycles/%d insts, pooled %d/%d", tel.name, fc, fi, pc, pi)
		}
	}
}
