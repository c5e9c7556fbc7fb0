package sim

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"icicle/internal/obs"
	"icicle/internal/sample"
)

// Runner executes simulation jobs on a worker pool with a content-keyed
// memoization cache. The zero value is not usable; construct with New.
//
// A Runner is safe for concurrent use. The cache has no eviction: the
// evaluation suite's working set is a few hundred (config, kernel) pairs,
// each a few maps of counters, which is negligible next to one simulation.
//
// The worker count is also the runner's core budget (see slotBudget): at
// most that many jobs simulate at once, across Run batches and RunOne
// callers alike, and a plan-engine job runs its windows on the slots the
// other jobs leave free.
type Runner struct {
	workers  int
	slots    *slotBudget
	memoize  bool
	corePool bool
	store    ResultStore // optional persistent L2 (nil = memory only)

	// m holds the runner's counters. New() uses standalone (unregistered)
	// metrics so each runner's counts stay isolated; WithMetricsRegistry
	// publishes them under icicle_sim_* names instead, where a scraper or
	// the -listen server can see them live.
	m       *runnerMetrics
	tracer  *obs.Tracer
	jobDone func(Result, time.Duration)

	mu    sync.Mutex
	cache map[string]*cacheEntry

	// Progress bookkeeping: done counts completed (not just submitted)
	// jobs, startNano is the first submission's wall clock (CAS once).
	done      atomic.Uint64
	startNano atomic.Int64
	asyncID   atomic.Uint64 // queue-span ids, unique across batches

	slow slowTracker

	// Allocation/GC accounting, accumulated as runtime.MemStats deltas
	// around Run batches: process-wide, so approximate when other work
	// (or a second runner) overlaps a batch.
	allocBytes atomic.Uint64
	mallocs    atomic.Uint64
	numGC      atomic.Uint64
}

// runnerMetrics is the full counter set, either standalone or backed by
// an obs.Registry. The core telemetry handles are installed into pooled
// cores on acquisition, so cycle/instruction throughput is attributed to
// whichever runner is driving the core.
type runnerMetrics struct {
	jobs       *obs.Counter   // jobs submitted
	hits       *obs.Counter   // served from cache
	misses     *obs.Counter   // actually simulated
	latency    *obs.Histogram // per-simulation wall time, ns observed / seconds exposed
	coreBuilds *obs.Counter   // cores constructed (pool misses)
	coreReuses *obs.Counter   // jobs served by a recycled core

	windowHits    *obs.Counter // sampled windows served from the window memo
	windowMisses  *obs.Counter // sampled windows actually executed
	windowWorkers *obs.Counter // window workers granted to plan-engine jobs

	storeHits   *obs.Counter // jobs served from the persistent result store
	storeMisses *obs.Counter // memo misses the store couldn't serve either

	rocket *obs.CoreTelemetry
	boom   *obs.CoreTelemetry

	// sample publishes the sampled-engine phase counters; passed into
	// the controller on every sampled job.
	sample *sample.Telemetry
}

func standaloneMetrics() *runnerMetrics {
	return &runnerMetrics{
		jobs:          obs.NewCounter(),
		hits:          obs.NewCounter(),
		misses:        obs.NewCounter(),
		latency:       obs.NewHistogram(1e-9),
		coreBuilds:    obs.NewCounter(),
		coreReuses:    obs.NewCounter(),
		windowHits:    obs.NewCounter(),
		windowMisses:  obs.NewCounter(),
		windowWorkers: obs.NewCounter(),
		storeHits:     obs.NewCounter(),
		storeMisses:   obs.NewCounter(),
		rocket:        obs.NewCoreTelemetry(),
		boom:          obs.NewCoreTelemetry(),
		sample:        sample.NewTelemetry(),
	}
}

func registryMetrics(reg *obs.Registry) *runnerMetrics {
	return &runnerMetrics{
		jobs: reg.Counter("icicle_sim_jobs_total",
			"simulation jobs submitted to the runner"),
		hits: reg.Counter("icicle_sim_cache_hits_total",
			"jobs served from the memoization cache"),
		misses: reg.Counter("icicle_sim_cache_misses_total",
			"jobs that actually simulated"),
		latency: reg.Histogram("icicle_sim_job_latency_seconds",
			"wall time per simulated job", 1e-9),
		coreBuilds: reg.Counter("icicle_sim_core_builds_total",
			"cores constructed for the pool"),
		coreReuses: reg.Counter("icicle_sim_core_reuses_total",
			"jobs served by a recycled core"),
		windowHits: reg.Counter("icicle_sim_window_hits_total",
			"sampled windows served from the window memo"),
		windowMisses: reg.Counter("icicle_sim_window_misses_total",
			"sampled windows actually executed"),
		windowWorkers: reg.Counter("icicle_sim_window_workers_granted_total",
			"window workers granted to plan-engine jobs (own worker plus borrowed free slots)"),
		storeHits: reg.Counter("icicle_sim_store_hits_total",
			"jobs served from the persistent result store"),
		storeMisses: reg.Counter("icicle_sim_store_misses_total",
			"memo misses the persistent store couldn't serve either"),
		rocket: obs.CoreTelemetryIn(reg, "rocket"),
		boom:   obs.CoreTelemetryIn(reg, "boom"),
		sample: sample.TelemetryIn(reg),
	}
}

// cacheEntry is a singleflight slot: the first arrival runs the job, later
// arrivals (including concurrent ones) block on done and share the result.
type cacheEntry struct {
	done chan struct{}
	res  Result
}

// Option configures a Runner.
type Option func(*Runner)

// WithWorkers sets the worker-pool size, which is also the core budget
// shared by concurrent jobs and plan-engine window workers (default
// GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(r *Runner) {
		if n > 0 {
			r.workers = n
		}
	}
}

// WithoutCache disables memoization: every job simulates, even repeats.
// Benchmarks use this to measure true simulation throughput.
func WithoutCache() Option {
	return func(r *Runner) { r.memoize = false }
}

// WithoutCorePool disables core reuse: every simulated job builds fresh
// cores instead of resetting pooled ones, on the same executor. Results
// are identical either way (TestUnpooledMatchesPooled asserts it); the
// option exists for benchmark ablations.
func WithoutCorePool() Option {
	return func(r *Runner) { r.corePool = false }
}

// WithMetricsRegistry publishes the runner's counters in reg under
// icicle_sim_* names (get-or-create, so two runners over one registry
// share counters). Without this option the runner keeps standalone,
// unregistered metrics.
func WithMetricsRegistry(reg *obs.Registry) Option {
	return func(r *Runner) { r.m = registryMetrics(reg) }
}

// WithTracer records pipeline spans (queued → job → acquire-core →
// simulate → tally) into tr for Perfetto export. A nil tracer disables
// tracing (the default).
func WithTracer(tr *obs.Tracer) Option {
	return func(r *Runner) { r.tracer = tr }
}

// WithJobCallback invokes fn after every completed job with the result
// and its wall time (cache hits included, with near-zero wall). The CLIs'
// -v per-job progress lines hang off this. fn must be safe for concurrent
// use; it runs on the worker goroutine.
func WithJobCallback(fn func(Result, time.Duration)) Option {
	return func(r *Runner) { r.jobDone = fn }
}

// New builds a runner. Defaults: GOMAXPROCS workers, memoization on,
// core pooling on, standalone metrics, no tracing.
func New(opts ...Option) *Runner {
	r := &Runner{
		workers:  runtime.GOMAXPROCS(0),
		memoize:  true,
		corePool: true,
		m:        standaloneMetrics(),
		cache:    map[string]*cacheEntry{},
	}
	for _, o := range opts {
		o(r)
	}
	r.slots = newSlotBudget(r.workers)
	return r
}

// Workers returns the pool size.
func (r *Runner) Workers() int { return r.workers }

// Run executes the batch and returns results in submission order: out[i]
// always corresponds to jobs[i], regardless of completion order. Errors are
// carried per-result (Result.Err), never lost to a worker.
func (r *Runner) Run(jobs []Job) []Result {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	defer func() {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		r.allocBytes.Add(after.TotalAlloc - before.TotalAlloc)
		r.mallocs.Add(after.Mallocs - before.Mallocs)
		r.numGC.Add(uint64(after.NumGC - before.NumGC))
	}()
	queuedAt := time.Now()
	out := make([]Result, len(jobs))
	n := r.workers
	if n > len(jobs) {
		n = len(jobs)
	}
	if n <= 1 {
		r.tracer.NameThread(0, "serial")
		for i, j := range jobs {
			out[i] = r.runOne(j, 0, queuedAt)
		}
		return out
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		tid := w + 1 // tid 0 is the serial/RunOne track
		if r.tracer != nil {
			r.tracer.NameThread(tid, fmt.Sprintf("worker-%d", tid))
		}
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(jobs) {
					return
				}
				out[i] = r.runOne(jobs[i], tid, queuedAt)
			}
		}()
	}
	wg.Wait()
	return out
}

// RunOne executes a single job through the cache.
func (r *Runner) RunOne(j Job) Result {
	return r.runOne(j, 0, time.Now())
}

// runOne is the per-job pipeline: record submission, close the queue
// span, run the job span around the cache lookup (and the simulation it
// may trigger), then fire the completion callback.
func (r *Runner) runOne(j Job, tid int, queuedAt time.Time) Result {
	if r.startNano.Load() == 0 {
		r.startNano.CompareAndSwap(0, time.Now().UnixNano())
	}
	r.m.jobs.Inc()
	tr := r.tracer
	var sp obs.Span
	if tr != nil {
		key := shortKey(j.Key())
		tr.Async("queued", "queue", r.asyncID.Add(1), queuedAt, time.Now(),
			obs.Arg{Key: "key", Val: key})
		sp = tr.Begin("job "+key, "job", tid)
	}
	start := time.Now()
	res := r.lookupOrSimulate(j, tid)
	wall := time.Since(start)
	if tr != nil {
		sp.End(obs.Arg{Key: "cached", Val: res.Cached})
	}
	r.done.Add(1)
	if r.jobDone != nil {
		r.jobDone(res, wall)
	}
	return res
}

func (r *Runner) lookupOrSimulate(j Job, tid int) Result {
	if !r.memoize {
		return r.simulate(j, tid)
	}
	key := j.Key()
	r.mu.Lock()
	if e, ok := r.cache[key]; ok {
		r.mu.Unlock()
		<-e.done // another goroutine may still be simulating this key
		r.m.hits.Inc()
		res := e.res
		res.Job = j // report the caller's own descriptor back
		res.Cached = true
		return res
	}
	e := &cacheEntry{done: make(chan struct{})}
	r.cache[key] = e
	r.mu.Unlock()
	// Memo miss: consult the persistent store (L2) before simulating, and
	// write fresh results back so the next process gets them for free.
	if r.store != nil {
		if res, ok := r.loadStored(j); ok {
			r.m.storeHits.Inc()
			e.res = res
			close(e.done)
			return res
		}
		r.m.storeMisses.Inc()
	}
	e.res = r.simulate(j, tid)
	if r.store != nil {
		r.storeResult(j, e.res)
	}
	close(e.done)
	return e.res
}

func (r *Runner) simulate(j Job, tid int) Result {
	r.slots.take()
	defer r.slots.give(1)
	r.m.misses.Inc()
	start := time.Now()
	res := r.executeJob(j, tid)
	wall := time.Since(start)
	r.m.latency.Observe(uint64(wall))
	r.slow.observe(j.Key(), wall)
	return res
}

// Progress reports live sweep status for the -listen /progress endpoint
// and the -progress ticker.
func (r *Runner) Progress() obs.Progress {
	done := r.done.Load()
	p := obs.Progress{
		Done:      done,
		Total:     r.m.jobs.Value(),
		CacheHits: r.m.hits.Value(),
	}
	if done > 0 {
		p.HitRate = float64(p.CacheHits) / float64(done)
	}
	if s := r.startNano.Load(); s != 0 {
		p.ElapsedSec = time.Since(time.Unix(0, s)).Seconds()
		if p.ElapsedSec > 0 {
			p.SimsPerSec = float64(done) / p.ElapsedSec
			if p.Total > done && p.SimsPerSec > 0 {
				p.ETASec = float64(p.Total-done) / p.SimsPerSec
			}
		}
	}
	return p
}

// SlowJob is one entry on the slowest-simulations leaderboard.
type SlowJob struct {
	Key  string
	Wall time.Duration
}

// slowTopK is the leaderboard size.
const slowTopK = 5

// slowTracker keeps the top-K slowest simulations in a fixed-size
// min-heap: heap[0] is the K-th slowest, so each new observation is one
// comparison against it and at most log K swaps — no allocation once the
// heap is full.
type slowTracker struct {
	mu   sync.Mutex
	heap []SlowJob // min-heap on Wall
}

func (s *slowTracker) observe(key string, wall time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.heap) < slowTopK {
		s.heap = append(s.heap, SlowJob{Key: key, Wall: wall})
		// sift up
		for i := len(s.heap) - 1; i > 0; {
			p := (i - 1) / 2
			if s.heap[p].Wall <= s.heap[i].Wall {
				break
			}
			s.heap[p], s.heap[i] = s.heap[i], s.heap[p]
			i = p
		}
		return
	}
	if wall <= s.heap[0].Wall {
		return
	}
	s.heap[0] = SlowJob{Key: key, Wall: wall}
	// sift down
	for i := 0; ; {
		l, rt, m := 2*i+1, 2*i+2, i
		if l < len(s.heap) && s.heap[l].Wall < s.heap[m].Wall {
			m = l
		}
		if rt < len(s.heap) && s.heap[rt].Wall < s.heap[m].Wall {
			m = rt
		}
		if m == i {
			return
		}
		s.heap[i], s.heap[m] = s.heap[m], s.heap[i]
		i = m
	}
}

// top returns the leaderboard, slowest first.
func (s *slowTracker) top() []SlowJob {
	s.mu.Lock()
	out := make([]SlowJob, len(s.heap))
	copy(out, s.heap)
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Wall > out[j].Wall })
	return out
}

// Stats is a snapshot of the runner's counters — the baseline future perf
// work measures against.
type Stats struct {
	Workers int
	Jobs    uint64        // jobs submitted
	Hits    uint64        // served from cache
	Misses  uint64        // actually simulated
	SimWall time.Duration // summed wall time inside simulations (across workers)
	Slowest time.Duration // longest single simulation
	SlowKey string        // its cache key

	CoreBuilds uint64 // cores constructed (pool misses)
	CoreReuses uint64 // jobs served by a recycled core

	WindowHits    uint64 // sampled windows served from the window memo
	WindowMisses  uint64 // sampled windows actually executed
	WindowWorkers uint64 // window workers granted to plan-engine jobs
	PeakSlots     int    // most core-budget slots held at once (≤ Workers)

	StoreHits   uint64 // jobs served from the persistent result store
	StoreMisses uint64 // memo misses the store couldn't serve either

	// MemStats deltas summed over Run batches (process-wide, approximate).
	AllocBytes uint64 // heap bytes allocated
	Mallocs    uint64 // heap objects allocated
	NumGC      uint64 // GC cycles completed
}

// Snapshot is Stats plus the full slowest-jobs leaderboard.
type Snapshot struct {
	Stats
	SlowJobs []SlowJob // top-5 slowest simulations, slowest first
}

// Stats returns the current counters.
func (r *Runner) Stats() Stats { return r.Snapshot().Stats }

// Snapshot returns the current counters plus the slowest-jobs leaderboard.
func (r *Runner) Snapshot() Snapshot {
	top := r.slow.top()
	st := Stats{
		Workers:       r.workers,
		Jobs:          r.m.jobs.Value(),
		Hits:          r.m.hits.Value(),
		Misses:        r.m.misses.Value(),
		SimWall:       time.Duration(r.m.latency.Sum()),
		CoreBuilds:    r.m.coreBuilds.Value(),
		CoreReuses:    r.m.coreReuses.Value(),
		WindowHits:    r.m.windowHits.Value(),
		WindowMisses:  r.m.windowMisses.Value(),
		WindowWorkers: r.m.windowWorkers.Value(),
		PeakSlots:     r.slots.peakHeld(),
		StoreHits:     r.m.storeHits.Value(),
		StoreMisses:   r.m.storeMisses.Value(),
		AllocBytes:    r.allocBytes.Load(),
		Mallocs:       r.mallocs.Load(),
		NumGC:         r.numGC.Load(),
	}
	if len(top) > 0 {
		st.Slowest = top[0].Wall
		st.SlowKey = top[0].Key
	}
	return Snapshot{Stats: st, SlowJobs: top}
}

func (s Stats) String() string {
	out := fmt.Sprintf("sim runner: %d workers, %d jobs (%d simulated, %d cache hits), %s total sim wall",
		s.Workers, s.Jobs, s.Misses, s.Hits, s.SimWall.Round(time.Millisecond))
	if s.CoreBuilds > 0 || s.CoreReuses > 0 {
		out += fmt.Sprintf("; %d cores built, %d reused", s.CoreBuilds, s.CoreReuses)
	}
	if s.WindowHits > 0 || s.WindowMisses > 0 {
		out += fmt.Sprintf("; %d windows run, %d memo hits", s.WindowMisses, s.WindowHits)
	}
	if s.StoreHits > 0 || s.StoreMisses > 0 {
		out += fmt.Sprintf("; %d store hits, %d store misses", s.StoreHits, s.StoreMisses)
	}
	if s.Misses > 0 && (s.AllocBytes > 0 || s.Mallocs > 0) {
		out += fmt.Sprintf("; %s allocated (%s/job, %d objects/job), %d GC cycles",
			byteCount(s.AllocBytes), byteCount(s.AllocBytes/s.Misses), s.Mallocs/s.Misses, s.NumGC)
	}
	if s.SlowKey != "" {
		out += fmt.Sprintf("; slowest %s (%s)", s.Slowest.Round(time.Millisecond), shortKey(s.SlowKey))
	}
	return out
}

// String renders the stats line plus the slowest-jobs leaderboard when
// more than one simulation has been timed.
func (s Snapshot) String() string {
	out := s.Stats.String()
	if len(s.SlowJobs) > 1 {
		out += "\nslowest jobs:"
		for i, sj := range s.SlowJobs {
			out += fmt.Sprintf("\n  %d. %-8s %s",
				i+1, sj.Wall.Round(time.Millisecond), shortKey(sj.Key))
		}
	}
	return out
}

// byteCount renders a byte total in a human scale (binary units).
func byteCount(b uint64) string {
	const unit = 1024
	if b < unit {
		return fmt.Sprintf("%d B", b)
	}
	div, exp := uint64(unit), 0
	for n := b / unit; n >= unit; n /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(b)/float64(div), "KMGTPE"[exp])
}

// shortKey trims a cache key to its core|kernel prefix for display.
func shortKey(key string) string {
	for i := 0; i < len(key); i++ {
		if key[i] == '{' {
			for i > 0 && key[i-1] == '|' {
				i--
			}
			return key[:i]
		}
	}
	return key
}

// The process-wide default runner, shared by the experiments package so
// overlapping sweeps (the Fig. 7 grids, Table V, the ablations all re-run
// the same (core, kernel) pairs) hit one cache. It always publishes its
// counters in obs.Default() and picks up the process tracer if tracing
// was enabled before construction.
var (
	defaultMu     sync.Mutex
	defaultRunner *Runner
)

func newDefault(opts ...Option) *Runner {
	base := []Option{WithMetricsRegistry(obs.Default()), WithTracer(obs.Tracing())}
	return New(append(base, opts...)...)
}

// Default returns the shared runner, creating it on first use.
func Default() *Runner {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	if defaultRunner == nil {
		defaultRunner = newDefault()
	}
	return defaultRunner
}

// SetDefaultWorkers replaces the shared runner with one using n workers
// (the CLI's -j flag). n <= 0 resets to GOMAXPROCS. The old cache is
// dropped.
func SetDefaultWorkers(n int) {
	if n <= 0 {
		ConfigureDefault()
		return
	}
	ConfigureDefault(WithWorkers(n))
}

// ConfigureDefault replaces the shared runner with one built from the
// defaults (obs.Default() metrics, the process tracer if enabled) plus
// opts. The CLIs call this after flag parsing, once tracing and callbacks
// are decided. The old cache is dropped.
func ConfigureDefault(opts ...Option) {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	defaultRunner = newDefault(opts...)
}
