package check

import (
	"testing"

	"icicle/internal/boom"
	"icicle/internal/kernel"
	"icicle/internal/rocket"
	"icicle/internal/sample"
)

// TestSampledAccuracyStrategies is the golden accuracy table for sampled
// simulation: one long program per generation strategy, run full-detail
// and sampled on both core models, asserting the top-level TMA category
// shares land within a per-strategy epsilon. The programs are stretched
// to ~450k instructions (~25 windows at this policy) so the assertion
// tests estimation quality, not small-sample luck; the epsilons are set
// from measured errors with margin (EXPERIMENTS.md "Sampled simulation
// recipe" has the default-policy picture).
func TestSampledAccuracyStrategies(t *testing.T) {
	if testing.Short() {
		t.Skip("sampled accuracy table is not a -short test")
	}
	// Denser schedule than sample.Default(): these programs are shorter
	// than the suite kernels the default is tuned for, and the golden
	// table wants enough windows per program for the estimator to
	// converge rather than a maximal speedup.
	p := sample.Policy{Window: 2048, Period: 16384, Warmup: 8192}
	cases := []struct {
		strategy string
		iters    int // outer-loop trips, sized for ~450k dynamic insts
		seed     int64
		// category-share epsilon (absolute, 1.0 == 100%) per core
		epsRocket, epsLarge float64
	}{
		{"mixed", 8000, 7, 0.03, 0.02},
		{"alu-heavy", 7000, 7, 0.03, 0.02},
		{"memory-aliasing", 5500, 7, 0.03, 0.02},
		{"branch-dense", 16000, 7, 0.03, 0.03},
		// Loop-carried serial chains give Rocket's CPI the highest
		// window-to-window variance of the table; the bound is wider.
		{"loop-carried", 6000, 7, 0.05, 0.02},
	}
	large := boom.NewConfig(boom.Large)
	for _, tc := range cases {
		tc := tc
		t.Run(tc.strategy, func(t *testing.T) {
			s, err := kernel.StrategyByName(tc.strategy)
			if err != nil {
				t.Fatal(err)
			}
			s.MinIters, s.MaxIters = tc.iters, tc.iters+1
			k := &kernel.Kernel{Name: tc.strategy + "-long", Source: s.Program(tc.seed)}

			dr, err := CompareSampledRocket(rocket.DefaultConfig(), k, p)
			if err != nil {
				t.Fatalf("rocket: %v", err)
			}
			t.Logf("rocket: %s", dr)
			if got := dr.MaxTopLevelErr(); got > tc.epsRocket {
				t.Errorf("rocket max category error %.2fpp > %.2fpp budget",
					100*got, 100*tc.epsRocket)
			}

			db, err := CompareSampledBoom(large, k, p)
			if err != nil {
				t.Fatalf("%s: %v", large.Name, err)
			}
			t.Logf("%s: %s", large.Name, db)
			if got := db.MaxTopLevelErr(); got > tc.epsLarge {
				t.Errorf("%s max category error %.2fpp > %.2fpp budget",
					large.Name, 100*got, 100*tc.epsLarge)
			}
		})
	}
}

// TestSampledAccuracyDefaultPolicy is the headline acceptance check: on a
// long-running suite kernel at the default sampling parameters, every
// top-level TMA category share from the sampled run is within 2
// percentage points of the full-detail run, on both core models.
func TestSampledAccuracyDefaultPolicy(t *testing.T) {
	k, err := kernel.ByName("towers")
	if err != nil {
		t.Fatal(err)
	}
	p := sample.Default()

	assert := func(name string, d SampledDiff) {
		t.Logf("%s: %s", name, d)
		errs := [4]float64{
			d.Sampled.Retiring - d.Full.Retiring,
			d.Sampled.BadSpec - d.Full.BadSpec,
			d.Sampled.Frontend - d.Full.Frontend,
			d.Sampled.Backend - d.Full.Backend,
		}
		for i, e := range errs {
			if e > 0.02 || e < -0.02 {
				t.Errorf("%s %s share off by %.2fpp (limit 2pp)",
					name, [4]string{"Retiring", "BadSpec", "Frontend", "Backend"}[i], 100*e)
			}
		}
		if d.CycleErr > 0.05 {
			t.Errorf("%s cycle estimate off by %.2f%%", name, 100*d.CycleErr)
		}
	}

	dr, err := CompareSampledRocket(rocket.DefaultConfig(), k, p)
	if err != nil {
		t.Fatalf("rocket: %v", err)
	}
	assert("rocket", dr)

	large := boom.NewConfig(boom.Large)
	db, err := CompareSampledBoom(large, k, p)
	if err != nil {
		t.Fatalf("%s: %v", large.Name, err)
	}
	assert(large.Name, db)
}
