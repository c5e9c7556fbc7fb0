// Package icicle is a full system-stack reproduction, in pure Go, of
// "Icicle: Open-Source Hardware Support for Top-Down Microarchitectural
// Analysis on RISC-V" (IISWC 2025): Top-Down Microarchitectural Analysis
// (TMA) for the Rocket and BOOM RISC-V cores.
//
// The stack comprises, bottom-up:
//
//   - internal/isa, internal/asm: an RV64IM functional model and assembler
//   - internal/mem, internal/branch: the memory hierarchy and branch
//     predictor substrates
//   - internal/rocket, internal/boom: cycle-level timing models of the two
//     cores with the full Table I performance-event lists, including the
//     events Icicle adds for TMA
//   - internal/pmu: the event/event-set abstraction and the three counter
//     microarchitectures (Scalar, AddWires, DistributedCounters)
//   - internal/core: the TMA model itself (the paper's Table II)
//   - internal/trace: TracerV-style cycle tracing and the temporal TMA
//     analyzer
//   - internal/perf: the perf-like software harness (CSR programming,
//     boot shims)
//   - internal/vlsi: the physical-design overhead model (Fig. 9)
//   - internal/kernel: the workload suite (microbenchmarks, case-study
//     kernels, SPEC CPU2017 intrate proxies)
//   - internal/experiments: regeneration of every evaluation table/figure
//
// TestPaperClaims (internal/experiments) asserts every paper claim from
// one claim registry; cmd/icicle-bench regenerates each artifact, and the
// other cmd/ tools expose the same functionality as CLIs. See DESIGN.md
// for the substitution map (paper infrastructure → this repository) and
// EXPERIMENTS.md for paper-vs-measured results.
package icicle
