package sim

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"icicle/internal/boom"
	"icicle/internal/kernel"
	"icicle/internal/rocket"
)

func mustKernel(t *testing.T, name string) *kernel.Kernel {
	t.Helper()
	k, err := kernel.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestRunSubmissionOrder(t *testing.T) {
	micro := kernel.ByCategory(kernel.CatMicro)
	if len(micro) < 3 {
		t.Fatalf("need >= 3 micro kernels, have %d", len(micro))
	}
	jobs := make([]Job, len(micro))
	for i, k := range micro {
		jobs[i] = RocketJob(rocket.DefaultConfig(), k)
	}
	r := New(WithWorkers(8))
	results := r.Run(jobs)
	if len(results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(results), len(jobs))
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("job %d (%s): %v", i, jobs[i].Kernel.Name, res.Err)
		}
		if res.Job.Kernel.Name != jobs[i].Kernel.Name {
			t.Errorf("result %d is for kernel %s, want %s",
				i, res.Job.Kernel.Name, jobs[i].Kernel.Name)
		}
		if res.Cycles() == 0 {
			t.Errorf("job %d (%s): zero cycles", i, jobs[i].Kernel.Name)
		}
	}
}

func TestCacheHitOnIdenticalJob(t *testing.T) {
	k := mustKernel(t, "vvadd")
	j := RocketJob(rocket.DefaultConfig(), k)
	r := New()
	first := r.RunOne(j)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	if first.Cached {
		t.Error("first run reported as cached")
	}
	second := r.RunOne(j)
	if !second.Cached {
		t.Error("identical job not served from cache")
	}
	if first.Cycles() != second.Cycles() || first.Exit() != second.Exit() {
		t.Errorf("cached result diverges: %d/%#x vs %d/%#x",
			first.Cycles(), first.Exit(), second.Cycles(), second.Exit())
	}
	s := r.Stats()
	if s.Jobs != 2 || s.Misses != 1 || s.Hits != 1 {
		t.Errorf("stats = %d jobs / %d misses / %d hits, want 2/1/1", s.Jobs, s.Misses, s.Hits)
	}
}

func TestCacheMissOnConfigChange(t *testing.T) {
	k := mustKernel(t, "vvadd")

	t.Run("rocket", func(t *testing.T) {
		base := rocket.DefaultConfig()
		small := rocket.DefaultConfig()
		small.Hierarchy.L1D.SizeBytes = 16 << 10
		if RocketJob(base, k).Key() == RocketJob(small, k).Key() {
			t.Error("L1D size change did not change the cache key")
		}
	})

	t.Run("boom", func(t *testing.T) {
		base := boom.NewConfig(boom.Large)
		variants := map[string]boom.Config{}

		v := base
		v.IntPorts++
		v.IssueWidth++
		variants["int-port lane count"] = v

		v = base
		v.MemPorts++
		v.IssueWidth++
		variants["mem-port lane count"] = v

		v = base
		v.DecodeWidth++
		variants["decode width"] = v

		v = base
		v.UseRAS = !v.UseRAS
		variants["RAS toggle"] = v

		baseKey := BoomJob(base, k).Key()
		seen := map[string]string{baseKey: "base"}
		for name, cfg := range variants {
			key := BoomJob(cfg, k).Key()
			if prev, dup := seen[key]; dup {
				t.Errorf("%s collides with %s", name, prev)
			}
			seen[key] = name
		}
	})

	t.Run("kernel", func(t *testing.T) {
		cfg := rocket.DefaultConfig()
		k2 := mustKernel(t, "towers")
		if RocketJob(cfg, k).Key() == RocketJob(cfg, k2).Key() {
			t.Error("different kernels share a cache key")
		}
	})
}

func TestCacheSingleflightConcurrent(t *testing.T) {
	k := mustKernel(t, "vvadd")
	j := RocketJob(rocket.DefaultConfig(), k)
	r := New()
	const n = 16
	results := make([]Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = r.RunOne(j)
		}(i)
	}
	wg.Wait()
	s := r.Stats()
	if s.Misses != 1 {
		t.Errorf("%d concurrent identical jobs simulated %d times, want 1", n, s.Misses)
	}
	if s.Hits != n-1 {
		t.Errorf("hits = %d, want %d", s.Hits, n-1)
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("goroutine %d: %v", i, res.Err)
		}
		if res.Cycles() != results[0].Cycles() {
			t.Errorf("goroutine %d saw %d cycles, goroutine 0 saw %d",
				i, res.Cycles(), results[0].Cycles())
		}
	}
}

func TestWithoutCache(t *testing.T) {
	k := mustKernel(t, "vvadd")
	j := RocketJob(rocket.DefaultConfig(), k)
	r := New(WithoutCache())
	r.RunOne(j)
	res := r.RunOne(j)
	if res.Cached {
		t.Error("WithoutCache runner served a cached result")
	}
	if s := r.Stats(); s.Misses != 2 {
		t.Errorf("misses = %d, want 2 (no memoization)", s.Misses)
	}
}

func TestMapOrderAndIndices(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i * 3
	}
	out, err := Map(8, items, func(i, v int) (string, error) {
		return fmt.Sprintf("%d:%d", i, v), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range out {
		if want := fmt.Sprintf("%d:%d", i, i*3); got != want {
			t.Fatalf("out[%d] = %q, want %q", i, got, want)
		}
	}
}

func TestMapErrorDeterministic(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	items := make([]int, 50)
	ran := make([]bool, len(items))
	_, err := Map(8, items, func(i, _ int) (int, error) {
		ran[i] = true
		switch i {
		case 7:
			return 0, errLow
		case 31:
			return 0, errHigh
		}
		return i, nil
	})
	if !errors.Is(err, errLow) {
		t.Errorf("got error %v, want the lowest-index failure %v", err, errLow)
	}
	for i, r := range ran {
		if !r {
			t.Errorf("item %d never executed after a sibling failed", i)
		}
	}
}

func TestSetDefaultWorkers(t *testing.T) {
	defer SetDefaultWorkers(0)
	SetDefaultWorkers(3)
	if got := Default().Workers(); got != 3 {
		t.Errorf("Default().Workers() = %d, want 3", got)
	}
	SetDefaultWorkers(0)
	if got := Default().Workers(); got < 1 {
		t.Errorf("reset Workers() = %d, want >= 1", got)
	}
}

func TestStatsString(t *testing.T) {
	k := mustKernel(t, "vvadd")
	r := New()
	r.RunOne(RocketJob(rocket.DefaultConfig(), k))
	s := r.Stats().String()
	if s == "" {
		t.Fatal("empty stats string")
	}
	if want := "1 simulated"; !contains(s, want) {
		t.Errorf("stats %q missing %q", s, want)
	}
	if want := "rocket|vvadd"; !contains(s, want) {
		t.Errorf("stats %q missing slow-key %q", s, want)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
