package perf

import (
	"reflect"
	"testing"

	"icicle/internal/boom"
	"icicle/internal/kernel"
	"icicle/internal/rocket"
)

// The golden reset-vs-fresh oracle: a core that has already simulated one
// kernel, once Reset, must reproduce a fresh core's Result byte for byte —
// every tally, per-lane counter, cache stat, and TMA breakdown. This is
// what makes the sim-layer core pool invisible: any state leaking across
// Reset (a trained predictor, a dirty memory frame, a stale arena slot)
// shows up here as a diff on the second run.

// resetKernels is ordered so each reused run follows a *different*
// workload — the adversarial case for leftover state.
var resetKernels = []string{"towers", "vvadd", "median", "multiply"}

func TestRocketResetMatchesFresh(t *testing.T) {
	cfg := rocket.DefaultConfig()
	var shared *rocket.Core
	for _, name := range resetKernels {
		k, err := kernel.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if shared == nil {
			prog, err := k.Program()
			if err != nil {
				t.Fatal(err)
			}
			shared = rocket.New(cfg, prog)
		}
		fresh, fb, err := RunRocket(cfg, k)
		if err != nil {
			t.Fatalf("%s: fresh run: %v", name, err)
		}
		if err := SimulateRocketOn(shared, k); err != nil {
			t.Fatalf("%s: reused run: %v", name, err)
		}
		reused, rb, err := TallyRocket(shared)
		if err != nil {
			t.Fatalf("%s: reused tally: %v", name, err)
		}
		if !reflect.DeepEqual(fresh, reused) {
			t.Errorf("%s: reused-core result diverges from fresh core\nfresh:  %+v\nreused: %+v",
				name, fresh, reused)
		}
		if fb != rb {
			t.Errorf("%s: TMA breakdown diverges\nfresh:  %+v\nreused: %+v", name, fb, rb)
		}
	}
}

func TestBoomResetMatchesFresh(t *testing.T) {
	for _, size := range boom.Sizes {
		size := size
		t.Run(boom.NewConfig(size).Name, func(t *testing.T) {
			t.Parallel()
			cfg := boom.NewConfig(size)
			var shared *boom.Core
			for _, name := range resetKernels {
				k, err := kernel.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				if shared == nil {
					prog, err := k.Program()
					if err != nil {
						t.Fatal(err)
					}
					if shared, err = boom.New(cfg, prog); err != nil {
						t.Fatal(err)
					}
				}
				fresh, fb, err := RunBoom(cfg, k)
				if err != nil {
					t.Fatalf("%s: fresh run: %v", name, err)
				}
				if err := SimulateBoomOn(shared, k); err != nil {
					t.Fatalf("%s: reused run: %v", name, err)
				}
				reused, rb, err := TallyBoom(shared)
				if err != nil {
					t.Fatalf("%s: reused tally: %v", name, err)
				}
				if !reflect.DeepEqual(fresh, reused) {
					t.Errorf("%s: reused-core result diverges from fresh core\nfresh:  %+v\nreused: %+v",
						name, fresh, reused)
				}
				if fb != rb {
					t.Errorf("%s: TMA breakdown diverges\nfresh:  %+v\nreused: %+v", name, fb, rb)
				}
			}
		})
	}
}
