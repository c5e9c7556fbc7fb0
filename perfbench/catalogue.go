package main

import "sort"

// layerUnits is the per-layer metric catalogue a traced run reports,
// with units. README.md says which end-to-end metric each should move on
// which workload. A layer a workload does not exercise reports 0.
var layerUnits = map[string]string{
	// Detailed cores: kernel panel (one kernel per class).
	"rocket.ns_per_inst.alu": "ns/inst", "rocket.ns_per_inst.branch": "ns/inst", "rocket.ns_per_inst.mem": "ns/inst",
	"boom.ns_per_inst.alu": "ns/inst", "boom.ns_per_inst.branch": "ns/inst", "boom.ns_per_inst.mem": "ns/inst",
	"rocket.skip_frac.alu": "frac", "rocket.skip_frac.branch": "frac", "rocket.skip_frac.mem": "frac",
	"boom.skip_frac.alu": "frac", "boom.skip_frac.branch": "frac", "boom.skip_frac.mem": "frac",
	"rocket.reset_us": "us", "boom.reset_us": "us", "rocket.new_us": "us", "perf.tally_us": "us",
	"asm.assemble_us": "us",

	// Sim runner and the figure sweep.
	"sim.busy_frac": "frac", "sim.slowest_job_s": "s", "sim.memo_hit_ratio": "frac", "sim.core_reuse_ratio": "frac",
	"runtime.alloc_mb": "MB", "runtime.gc_cycles": "count",

	// Functional engine and sampling.
	"sample.plan_ms": "ms", "isa.ns_per_inst": "ns/inst", "isa.sb_hit_ratio": "frac", "perf.plan_hit_ratio": "frac",
	"sample.window_us.rocket": "us", "sample.window_us.boom-small": "us", "sample.window_us.boom-large": "us",
	"sample.detail_frac": "frac", "sample.plan_share": "frac", "sample.merge_us": "us", "sampled_err_pp": "pp",

	// Result codec and store.
	"sim.encode_us": "us", "store.put_us": "us", "store.blob_kb": "KB", "store.get_us": "us", "sim.decode_us": "us",

	// Service.
	"serve.render_us": "us", "serve.queue_wait_ms.p50": "ms", "serve.queue_wait_ms.p99": "ms",
	"serve.queue_wait_ms.class0": "ms", "serve.queue_wait_ms.class2": "ms",
	"serve.remainder_ms.sampled": "ms", "serve.remainder_ms.full": "ms",
	"serve.http_ms.sampled": "ms", "serve.http_ms.full": "ms",
	"warm_p50_ms": "ms", "warm_p99_ms": "ms", "blob_p50_ms": "ms", "blob_p99_ms": "ms",
	"cold_p50_ms": "ms", "cold_p90_ms": "ms", "achieved_rps": "1/s",

	// Traffic verification counts, scraped from the server.
	"serve.memo_hits": "count", "serve.store_hits": "count", "serve.simulated": "count",
	"store.writes": "count", "sample.windows": "count",

	// Run validity.
	"load.gen_late_p99_ms": "ms", "trace.overhead_frac.sampled": "frac", "trace.overhead_frac.full": "frac",
	"trace.sum_error_frac.sampled": "frac", "trace.sum_error_frac.full": "frac",

	// Attribution of the two probe requests (self time per layer).
	"attr.sampled.untraced_ms": "ms", "attr.sampled.parse_ms": "ms", "attr.sampled.assemble_ms": "ms",
	"attr.sampled.store_get_ms": "ms", "attr.sampled.core_new_ms": "ms", "attr.sampled.plan_ms": "ms",
	"attr.sampled.reset_ms": "ms", "attr.sampled.windows_ms": "ms", "attr.sampled.window_store_ms": "ms",
	"attr.sampled.merge_ms": "ms", "attr.sampled.encode_ms": "ms", "attr.sampled.store_put_ms": "ms",
	"attr.full.untraced_ms": "ms", "attr.full.parse_ms": "ms", "attr.full.assemble_ms": "ms",
	"attr.full.store_get_ms": "ms", "attr.full.core_new_ms": "ms", "attr.full.reset_ms": "ms",
	"attr.full.run_ms": "ms", "attr.full.tally_ms": "ms", "attr.full.encode_ms": "ms", "attr.full.store_put_ms": "ms",
}

func init() {
	for _, a := range artifacts() {
		layerUnits["experiments."+a.name+"_s"] = "s"
	}
}

// layerMetrics is the catalogue's names, sorted.
func layerMetrics() []string {
	names := make([]string, 0, len(layerUnits))
	for n := range layerUnits {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
