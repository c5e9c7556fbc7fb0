GO ?= go
FUZZTIME ?= 30s

.PHONY: all build test race bench bench-smoke alloc-smoke obs-smoke sample-smoke sample-par-smoke superblock-smoke detail-smoke serve-smoke perfbench-test check fuzz-smoke fmt vet scratch-guard ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Steady-state cycle-loop benchmarks with allocation reporting: both
# cores should show 0 allocs/op (the arena/reset invariant).
bench:
	$(GO) test -run='^$$' -bench=CycleLoop -benchmem .

# One iteration of the sweep benchmark: exercises the serial and parallel
# runner paths end to end without benchmarking-grade runtimes.
bench-smoke:
	$(GO) test -run='^$$' -bench=Sweep -benchtime=1x .

# Allocation-regression smoke: fails if a warmed core's Reset+RunCycles
# exceeds the checked-in allocs-per-run budget (see alloc_test.go),
# including the event-driven stall-skip path on both detailed cores.
alloc-smoke:
	$(GO) test -run='SteadyStateAllocs|StallSkipAllocs' -count=1 .

# Observability smoke: runs a traced sweep plus a sampled temporal-TMA
# capture and validates the Chrome trace-event JSON shape and the
# Prometheus text exposition (see obs_smoke_test.go).
obs-smoke:
	$(GO) test -run=ObsSmoke -count=1 .

# Sampled-simulation smoke: a sampled run per core at the default
# policy, checking report invariants, determinism, and loose agreement
# with full detail (see sample_smoke_test.go; tight accuracy bounds are
# the sampled-* paper claims and internal/check, the speedup claim
# BenchmarkSampledVsFull).
sample-smoke:
	$(GO) test -run=SampleSmoke -count=1 .

# Two-phase sampled engine smoke: the golden serial-vs-parallel
# bit-identity table plus the pooled-core interleave test
# (sample_par_smoke_test.go), run under the race detector so the window
# fan-out is exercised with checking on.
sample-par-smoke:
	$(GO) test -race -run=SamplePar -count=1 .

# Superblock threaded-code engine smoke: kernel-level differential runs
# (superblock on vs off, bit-identical state + memory) and sampled-report
# engine-independence under the race detector, plus the sampled
# alloc-budget pin, which the epoch-restamp invalidation path must not
# regress (see superblock_smoke_test.go and internal/isa/superblock.go).
superblock-smoke:
	$(GO) test -race -run=SuperblockSmoke -count=1 .
	$(GO) test -run='SampledRunAllocs|SuperblockRunAllocs' -count=1 .

# Event-driven detailed-core smoke: skip-vs-step golden equivalence on
# kernel differentials for Rocket and every BOOM size, Reset-reuse
# identity with the skip on, and a sampled report compared deep-equal
# across the two cycle loops, run under the race detector (see
# detail_smoke_test.go and DESIGN.md "Event-driven detailed cycle loops").
detail-smoke:
	$(GO) test -race -run=DetailSmoke -count=1 .

# Sweep-service smoke: the icicle-serve end-to-end contract under the
# race detector — HTTP results byte-identical to the in-process runner, a
# second server answering a persisted sweep with zero simulations,
# corrupted store blobs quarantined and recomputed, and concurrent
# wait-mode clients in two priority classes (serve_smoke_test.go),
# plus the serve/store package suites (queueing fairness, sharding,
# content-addressed store corruption/eviction/recovery).
serve-smoke:
	$(GO) test -race -run=ServeSmoke -count=1 .
	$(GO) test -race ./internal/serve/ ./internal/store/ -count=1

# The benchmark harness's own checks (tail rule, lateness, layer-sum
# arithmetic, digest stability). perfbench is a separate module, so the
# root vet and test runs do not reach it.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Differential oracle + metamorphic invariants + corpus replay
# (internal/check; see DESIGN.md "Verification").
check:
	$(GO) test ./internal/check/ -count=1

# Run every native fuzz target for $(FUZZTIME) each. Go allows one -fuzz
# target per invocation, hence the loop. A crasher is written to
# <package>/testdata/fuzz/<Target>/ and replays in plain `go test`.
# FuzzDecodeWindow feeds the window-blob decoder (store payloads come
# from disk).
fuzz-smoke:
	for target in FuzzAssemble FuzzDecodeEncodeRoundtrip FuzzDifferential FuzzSuperblockDifferential FuzzStallSkipDifferential; do \
		$(GO) test ./internal/check/ -run='^$$' -fuzz=$$target -fuzztime=$(FUZZTIME) || exit 1; \
	done
	$(GO) test ./internal/sim/ -run='^$$' -fuzz=FuzzDecodeWindow -fuzztime=$(FUZZTIME)

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# No scratch/review litter may be tracked: fail if any path matches the
# deny patterns (temporary review dirs, editor droppings, stray logs).
scratch-guard:
	@out=$$(git ls-files | grep -E '(^|/)(zz_[^/]*|scratch[^/]*|.*\.tmp|.*\.orig|.*\.rej|.*~)$$' || true); \
	if [ -n "$$out" ]; then \
		echo "scratch files tracked in git:"; echo "$$out"; exit 1; \
	fi

ci: fmt vet scratch-guard build race bench-smoke alloc-smoke obs-smoke sample-smoke sample-par-smoke superblock-smoke detail-smoke serve-smoke perfbench-test check fuzz-smoke
