package main

import (
	"encoding/json"
	"fmt"

	"icicle/internal/rocket"
	"icicle/internal/sample"
	"icicle/internal/serve"
	"icicle/internal/sim"
)

// jobDef is one job the benchmark sends, under the label its golden
// digest is filed by.
type jobDef struct {
	Label string
	Spec  serve.JobSpec
}

// job resolves the definition the way the server does: through the
// JSON wire form, so in-process and HTTP runs see identical configs.
func (d jobDef) job() (sim.Job, error) {
	body, err := json.Marshal(d.Spec)
	if err != nil {
		return sim.Job{}, err
	}
	var spec serve.JobSpec
	if err := json.Unmarshal(body, &spec); err != nil {
		return sim.Job{}, err
	}
	return spec.Job()
}

// coreSpec names the three cores the grids use.
var coreNames = []string{"rocket", "boom-small", "boom-large"}

func specFor(core, kernel string) serve.JobSpec {
	switch core {
	case "boom-small":
		return serve.JobSpec{Core: "boom", Size: "small", Kernel: kernel}
	case "boom-large":
		return serve.JobSpec{Core: "boom", Size: "large", Kernel: kernel}
	}
	return serve.JobSpec{Core: "rocket", Kernel: kernel}
}

// sampledKernels are the long programs of the sampled-sweep grid: the
// ten SPEC proxies plus the three micro kernels long enough to sample.
var sampledKernels = []string{
	"500.perlbench_r", "502.gcc_r", "505.mcf_r", "520.omnetpp_r", "523.xalancbmk_r",
	"525.x264_r", "531.deepsjeng_r", "541.leela_r", "548.exchange2_r", "557.xz_r",
	"towers", "mm", "bfs",
}

var sampledPeriods = []uint64{24576, 49152, 98304}

func sampledPolicy(period uint64) sample.Policy {
	p := sample.Default()
	p.Period = period
	return p
}

// sampledGrid is every cold sampled request of one sampled-sweep round,
// in canonical order: kernel × period × core, one-worker plan engine.
func sampledGrid() []jobDef {
	var out []jobDef
	for _, k := range sampledKernels {
		for _, period := range sampledPeriods {
			for _, c := range coreNames {
				spec := specFor(c, k)
				p := sampledPolicy(period)
				spec.Sample = &p
				spec.SamplePar = 1
				out = append(out, jobDef{fmt.Sprintf("sampled|%s|%s|p%d", c, k, period), spec})
			}
		}
	}
	return out
}

// coldKernels are cheap micro kernels for serve-mix's cold class.
var coldKernels = []string{"multiply", "spmv", "histogram", "coremark", "median", "qsort"}

const coldConfigs = 8

// coldConfig is the i-th Rocket variant of the cold pool. Every variant
// differs from the default configuration, so a cold job never shares a
// memo or store key with a seeded one.
func coldConfig(i int) rocket.Config {
	cfg := rocket.DefaultConfig()
	cfg.MulLatency = 5 + i%4
	cfg.DivLatency = 20 + 4*(i/4)
	return cfg
}

// coldPool is serve-mix's cold class: each (kernel, config) is requested
// once per round, so every cold request simulates.
func coldPool() []jobDef {
	var out []jobDef
	for _, k := range coldKernels {
		for i := 0; i < coldConfigs; i++ {
			cfg := coldConfig(i)
			out = append(out, jobDef{fmt.Sprintf("cold|%s|cfg%d", k, i),
				serve.JobSpec{Core: "rocket", Kernel: k, Rocket: &cfg}})
		}
	}
	return out
}

// seedKernels are simulated into serve-mix's store during set-up; warm
// requests and blob reads only ever touch these.
var seedKernels = []string{"multiply", "spmv", "histogram", "coremark", "median", "qsort", "vvadd", "mergesort"}

func seedSet() []jobDef {
	var out []jobDef
	for _, c := range []string{"rocket", "boom-small"} {
		for _, k := range seedKernels {
			out = append(out, jobDef{fmt.Sprintf("seed|%s|%s", c, k), specFor(c, k)})
		}
	}
	return out
}

// refPairs are the (core, kernel) pairs whose full-detail top-level TMA
// the sampled-sweep errors are measured against.
func refPairs() []jobDef {
	var out []jobDef
	for _, k := range sampledKernels {
		for _, c := range coreNames {
			out = append(out, jobDef{c + "|" + k, specFor(c, k)})
		}
	}
	return out
}

// refLabel maps a sampled-grid label to its full-detail reference pair.
func refLabel(d jobDef) string {
	c := "rocket"
	if d.Spec.Core == "boom" {
		c = "boom-" + d.Spec.Size
	}
	return c + "|" + d.Spec.Kernel
}

// allGoldenJobs is every job whose digest is pinned.
func allGoldenJobs() []jobDef {
	out := sampledGrid()
	out = append(out, coldPool()...)
	return append(out, seedSet()...)
}
