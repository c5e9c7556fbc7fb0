package perf

import (
	"fmt"
	"reflect"
	"testing"

	"icicle/internal/boom"
	"icicle/internal/kernel"
	"icicle/internal/pmu"
	"icicle/internal/rocket"
	"icicle/internal/sample"
)

// The counter architecture (§IV-B) changes what a programmed counter
// reads, never how the core runs, which is why it is a PMU setting and
// not part of a core config or a job key. Every run path must therefore
// give the same result whichever architecture the core's PMU is set to.
func TestCounterArchitectureIsResultFree(t *testing.T) {
	k, err := kernel.ByName("qsort")
	if err != nil {
		t.Fatal(err)
	}
	prog := k.MustProgram()
	p := sample.Policy{Window: 512, Period: 16384, Warmup: 2048}
	archs := []pmu.Architecture{pmu.Scalar, pmu.AddWires, pmu.Distributed}

	newRocket := func(a pmu.Architecture) *rocket.Core {
		c := rocket.New(rocket.DefaultConfig(), prog)
		c.PMU.Arch = a
		return c
	}
	newBoom := func(a pmu.Architecture) *boom.Core {
		c := boom.MustNew(boom.NewConfig(boom.Small), prog)
		c.PMU.Arch = a
		return c
	}
	// kept checks that a run left the architecture set, so the paths
	// really ran under each one.
	kept := func(pm *pmu.PMU, a pmu.Architecture) error {
		if pm.Arch != a {
			return fmt.Errorf("PMU architecture %v after the run, set %v", pm.Arch, a)
		}
		return nil
	}
	paths := map[string]func(pmu.Architecture) ([]any, error){
		"rocket/full": func(a pmu.Architecture) ([]any, error) {
			c := newRocket(a)
			if err := SimulateRocketOn(c, k); err != nil {
				return nil, err
			}
			res, b, err := TallyRocket(c)
			if err == nil {
				err = kept(c.PMU, a)
			}
			return []any{res, b}, err
		},
		"rocket/sampled": func(a pmu.Architecture) ([]any, error) {
			res, rep, b, err := SampleRocketOn(newRocket(a), k, p, sample.Options{})
			return []any{res, rep, b}, err
		},
		"rocket/sampled-par": func(a pmu.Architecture) ([]any, error) {
			res, rep, b, err := SampleRocketParOn([]*rocket.Core{newRocket(a), newRocket(a)}, k, p, sample.Options{}, nil)
			return []any{res, rep, b}, err
		},
		"smallboom/full": func(a pmu.Architecture) ([]any, error) {
			c := newBoom(a)
			if err := SimulateBoomOn(c, k); err != nil {
				return nil, err
			}
			res, b, err := TallyBoom(c)
			if err == nil {
				err = kept(c.PMU, a)
			}
			return []any{res, b}, err
		},
		"smallboom/sampled": func(a pmu.Architecture) ([]any, error) {
			res, rep, b, err := SampleBoomOn(newBoom(a), k, p, sample.Options{})
			return []any{res, rep, b}, err
		},
		"smallboom/sampled-par": func(a pmu.Architecture) ([]any, error) {
			res, rep, b, err := SampleBoomParOn([]*boom.Core{newBoom(a), newBoom(a)}, k, p, sample.Options{}, nil)
			return []any{res, rep, b}, err
		},
	}
	for name, path := range paths {
		t.Run(name, func(t *testing.T) {
			var ref []any
			for _, a := range archs {
				got, err := path(a)
				if err != nil {
					t.Fatalf("%v: %v", a, err)
				}
				if ref == nil {
					ref = got
				} else if !reflect.DeepEqual(got, ref) {
					t.Errorf("%v result differs from %v", a, archs[0])
				}
			}
		})
	}
}
