// Package serve is the simulation-as-a-service layer: an HTTP/JSON
// job-submission API over the internal/sim runner, backed by the
// persistent content-addressed result store (internal/store) so
// identical sweeps are free across processes and users. It is the
// ROADMAP's "millions of users" refactor: submission decouples from
// execution through a priority queue with per-client weighted fairness,
// results persist and are content-addressable, and a fleet of servers
// shards work by config fingerprint over a consistent-hash ring.
//
// API:
//
//	POST /jobs          submit a batch  → {id, jobs, status_url}
//	GET  /jobs/{id}     status + per-job results (JSON)
//	GET  /store/{addr}  raw verified result blob (gob payload)
//	GET  /healthz       liveness + queue/store snapshot
//	GET  /metrics       Prometheus text (the server's registry)
//	POST /internal/run  shard-internal synchronous execution
//
// Completed batches are retained for Config.BatchTTL (and capped at
// Config.MaxBatches), then evicted — GET /jobs/{id} 404s afterwards,
// while the results themselves stay fetchable from the persistent store.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"icicle/internal/obs"
	"icicle/internal/sim"
	"icicle/internal/store"
)

// Config assembles a Server.
type Config struct {
	// Store is the persistent result store (nil = in-memory only; the
	// /store/ endpoint then 404s and nothing survives the process).
	Store *store.Store
	// Registry receives the server's icicle_serve_* metrics and the
	// runner's icicle_sim_* metrics (nil = a fresh private registry).
	Registry *obs.Registry
	// Tracer records serve-job spans (nil = no tracing).
	Tracer *obs.Tracer
	// QueueWorkers is the number of concurrent job executors (default
	// GOMAXPROCS). The runner's worker count (sim.WithWorkers in
	// RunnerOpts, default GOMAXPROCS) bounds how many of them simulate
	// at once; a sampled plan-engine job also runs its windows on that
	// budget's free slots, whatever its SamplePar says.
	QueueWorkers int
	// Self is this server's advertised base URL ("http://host:port") on
	// the shard ring; Peers lists every shard, Self included, spelled
	// exactly as Self spells it. Empty Peers = no sharding. New rejects a
	// non-empty Peers without a matching Self: a node that cannot
	// recognise itself on the ring would silently forward 100% of jobs —
	// including its own — and serve them only through the per-job
	// fallback path.
	Self  string
	Peers []string
	// BatchTTL bounds how long a completed batch (its per-job results and
	// status) stays queryable via GET /jobs/{id}. Completed batches past
	// the TTL are evicted so a long-running server does not grow without
	// bound; the result blobs remain in the persistent store. 0 = the
	// 30-minute default, negative = retain forever.
	BatchTTL time.Duration
	// MaxBatches caps the number of retained batches regardless of age;
	// past it the oldest *completed* batches are evicted first (batches
	// still running are never evicted). 0 = the 4096 default, negative =
	// unlimited.
	MaxBatches int
	// RunnerOpts appends options to the underlying sim runner (tests).
	RunnerOpts []sim.Option
}

// Server is one icicle-serve node.
type Server struct {
	cfg    Config
	reg    *obs.Registry
	tr     *obs.Tracer
	runner *sim.Runner
	queue  *fairQueue
	ring   *ring
	m      *serveMetrics
	client *http.Client

	// exec runs one job locally; tests stub it to model synthetic load.
	exec func(sim.Job) sim.Result

	batchTTL   time.Duration // retention for completed batches (0 = forever)
	maxBatches int           // cap on retained batches (0 = unlimited)

	mu      sync.Mutex
	batches map[string]*batch
	nextID  uint64

	started atomic.Int64 // first submission wall clock (unix nanos)

	wg          sync.WaitGroup
	workers     int
	httpSrv     *http.Server
	listener    net.Listener
	closed      atomic.Bool
	janitorStop chan struct{}
}

// batch is one submitted job batch and its accumulating results.
type batch struct {
	id       string
	client   string
	priority int
	jobs     []sim.Job
	created  time.Time
	done     chan struct{} // closed when the last job completes

	mu        sync.Mutex
	results   []sim.Result
	resDone   []bool
	forwarded []bool
	remaining int
	finished  time.Time
}

func (b *batch) setResult(i int, res sim.Result, forwarded bool) (batchDone bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.resDone[i] {
		return false
	}
	b.results[i] = res
	b.resDone[i] = true
	b.forwarded[i] = forwarded
	b.remaining--
	if b.remaining == 0 {
		b.finished = time.Now()
		close(b.done)
		return true
	}
	return false
}

// doneAt reports when the batch completed (zero time, false while any
// job is still outstanding).
func (b *batch) doneAt() (time.Time, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.finished, b.remaining == 0
}

// validateSharding rejects ring configurations that would silently
// misroute: with a non-empty peer list, Self must be set and must appear
// in Peers spelled identically, or owner() can never match this node and
// every job — including its own — gets forwarded.
func validateSharding(cfg Config) error {
	if len(cfg.Peers) == 0 {
		return nil
	}
	if cfg.Self == "" {
		return fmt.Errorf("serve: Peers is set but Self is empty; a node that is not on its own ring would forward every job, set Self to this server's URL exactly as it appears in Peers")
	}
	for _, p := range cfg.Peers {
		if p == cfg.Self {
			return nil
		}
	}
	return fmt.Errorf("serve: Self %q is not in Peers %v; the peer list must name this node exactly as Self spells it, or the ring will route this node's own share elsewhere", cfg.Self, cfg.Peers)
}

// New builds a server and starts its executor pool. Close releases it.
// It fails on a sharding configuration that cannot route correctly (see
// Config.Self).
func New(cfg Config) (*Server, error) {
	if err := validateSharding(cfg); err != nil {
		return nil, err
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	workers := cfg.QueueWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ropts := []sim.Option{sim.WithMetricsRegistry(reg)}
	if cfg.Tracer != nil {
		ropts = append(ropts, sim.WithTracer(cfg.Tracer))
	}
	if cfg.Store != nil {
		ropts = append(ropts, sim.WithResultStore(cfg.Store))
	}
	ropts = append(ropts, cfg.RunnerOpts...)
	batchTTL := cfg.BatchTTL
	switch {
	case batchTTL == 0:
		batchTTL = 30 * time.Minute
	case batchTTL < 0:
		batchTTL = 0 // retain forever
	}
	maxBatches := cfg.MaxBatches
	switch {
	case maxBatches == 0:
		maxBatches = 4096
	case maxBatches < 0:
		maxBatches = 0 // unlimited
	}
	s := &Server{
		cfg:         cfg,
		reg:         reg,
		tr:          cfg.Tracer,
		runner:      sim.New(ropts...),
		queue:       newFairQueue(),
		ring:        newRing(cfg.Self, cfg.Peers),
		m:           newServeMetrics(reg),
		client:      &http.Client{Timeout: 5 * time.Minute},
		batches:     map[string]*batch{},
		workers:     workers,
		batchTTL:    batchTTL,
		maxBatches:  maxBatches,
		janitorStop: make(chan struct{}),
	}
	s.exec = s.runner.RunOne
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		tid := 100 + w // distinct trace track family from the sim runner's
		s.tr.NameThread(tid, fmt.Sprintf("serve-worker-%d", w))
		go s.worker(tid)
	}
	if s.batchTTL > 0 {
		s.wg.Add(1)
		go s.janitor()
	}
	return s, nil
}

// janitor periodically evicts completed batches past the retention TTL,
// so memory is reclaimed even when the server goes idle after a burst.
// The size cap is additionally enforced inline at submission.
func (s *Server) janitor() {
	defer s.wg.Done()
	interval := s.batchTTL / 4
	if interval > time.Minute {
		interval = time.Minute
	}
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-tick.C:
			s.evictBatches(time.Now())
		}
	}
}

// evictBatches applies the retention policy: completed batches older
// than the TTL go first; if the count still exceeds MaxBatches, the
// oldest completed batches go next. Running batches are never evicted.
// Evicted ids 404 on GET /jobs/{id}; the result blobs stay in the store.
func (s *Server) evictBatches(now time.Time) (evicted int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	type done struct {
		id string
		at time.Time
	}
	var finished []done
	for id, b := range s.batches {
		if at, ok := b.doneAt(); ok {
			if s.batchTTL > 0 && now.Sub(at) > s.batchTTL {
				delete(s.batches, id)
				evicted++
				continue
			}
			finished = append(finished, done{id, at})
		}
	}
	if s.maxBatches > 0 && len(s.batches) > s.maxBatches {
		sort.Slice(finished, func(i, j int) bool { return finished[i].at.Before(finished[j].at) })
		for _, f := range finished {
			if len(s.batches) <= s.maxBatches {
				break
			}
			delete(s.batches, f.id)
			evicted++
		}
	}
	if evicted > 0 {
		s.m.batchesEvicted.Add(uint64(evicted))
	}
	return evicted
}

// worker drains the fair queue until Close.
func (s *Server) worker(tid int) {
	defer s.wg.Done()
	for {
		t, ok := s.queue.Pop()
		if !ok {
			return
		}
		s.m.queueDepth.Add(-1)
		wait := time.Since(t.enqueued)
		s.m.queueWait.Observe(uint64(wait))
		s.m.queueWaitFor(t.b.priority).Observe(uint64(wait))
		j := t.b.jobs[t.idx]
		sp := s.tr.Begin("serve job "+j.CoreName()+"|"+j.Kernel.Name, "serve", tid)
		start := time.Now()
		res, forwarded := s.runTask(j)
		s.m.latency.Observe(uint64(time.Since(start)))
		sp.End(obs.Arg{Key: "batch", Val: t.b.id}, obs.Arg{Key: "forwarded", Val: forwarded})
		s.m.completed.Inc()
		if res.Err != nil {
			s.m.errored.Inc()
		}
		t.b.setResult(t.idx, res, forwarded)
	}
}

// runTask routes one job: shard peer first when the ring says the config
// belongs elsewhere, with local fallback on any forward failure.
func (s *Server) runTask(j sim.Job) (res sim.Result, forwarded bool) {
	if owner := s.ring.owner(j.ConfigFingerprint()); owner != "" && owner != s.cfg.Self {
		if res, err := s.forward(owner, j); err == nil {
			s.m.forwarded.Inc()
			return res, true
		}
		s.m.fallback.Inc()
	}
	return s.runLocal(j), false
}

// runLocal executes on this node's runner and classifies the outcome.
func (s *Server) runLocal(j sim.Job) sim.Result {
	res := s.exec(j)
	switch {
	case res.Err != nil:
		// counted by the caller via completed/errored
	case res.FromStore:
		s.m.storeHits.Inc()
	case res.Cached:
		s.m.memoHits.Inc()
	default:
		s.m.simulated.Inc()
	}
	return res
}

// forward executes j synchronously on a shard peer via /internal/run and
// decodes the returned blob payload.
func (s *Server) forward(owner string, j sim.Job) (sim.Result, error) {
	spec, err := specFor(j)
	if err != nil {
		return sim.Result{}, err
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return sim.Result{}, err
	}
	req, err := http.NewRequest(http.MethodPost, owner+"/internal/run", bytes.NewReader(body))
	if err != nil {
		return sim.Result{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return sim.Result{}, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return sim.Result{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return sim.Result{}, fmt.Errorf("peer %s: %s: %s", owner, resp.Status, payload)
	}
	res, err := sim.DecodeResult(payload, j)
	if err != nil {
		return sim.Result{}, err
	}
	return res, nil
}

// specFor reconstructs a wire spec from a resolved job (forwarding
// carries the full config so both sides agree exactly).
func specFor(j sim.Job) (JobSpec, error) {
	spec := JobSpec{Kernel: j.Kernel.Name}
	if j.Core == sim.Boom {
		spec.Core = "boom"
		cfg := j.Boom
		spec.Boom = &cfg
	} else {
		spec.Core = "rocket"
		cfg := j.Rocket
		spec.Rocket = &cfg
	}
	if j.Sample.Enabled() {
		p := j.Sample
		spec.Sample = &p
		spec.SamplePar = j.SamplePar
	}
	return spec, nil
}

// Handler returns the API routes, each wrapped in per-endpoint
// instrumentation (request duration histogram + in-flight gauge under
// the route pattern as the endpoint label).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.instrument("/jobs", s.handleSubmit))
	mux.HandleFunc("GET /jobs/{id}", s.instrument("/jobs/{id}", s.handleStatus))
	mux.HandleFunc("GET /store/{addr}", s.instrument("/store/{addr}", s.handleStoreGet))
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	mux.HandleFunc("POST /internal/run", s.instrument("/internal/run", s.handleInternalRun))
	mux.HandleFunc("GET /metrics", s.instrument("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.reg.WritePrometheus(w)
	}))
	mux.HandleFunc("GET /", s.instrument("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "icicle-serve\n\nPOST /jobs\nGET /jobs/{id}\nGET /store/{addr}\nGET /healthz\nGET /metrics\n")
	}))
	return mux
}

// instrument wraps one route with the request counter, the per-endpoint
// duration histogram, and the per-endpoint + global in-flight gauges.
// Wait-mode submissions are measured like everything else, so the
// /jobs duration histogram is the server-side view of what a
// synchronous client observes.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	dur := s.m.durationFor(endpoint)
	inf := s.m.inflightFor(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		s.m.requests.Inc()
		s.m.inflight.Add(1)
		inf.Add(1)
		start := time.Now()
		h(w, r)
		dur.Observe(uint64(time.Since(start)))
		inf.Add(-1)
		s.m.inflight.Add(-1)
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 8<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Jobs) == 0 {
		httpError(w, http.StatusBadRequest, "empty job list")
		return
	}
	if req.Client == "" {
		req.Client = "anon"
	}
	jobs := make([]sim.Job, len(req.Jobs))
	for i, spec := range req.Jobs {
		j, err := spec.Job()
		if err != nil {
			httpError(w, http.StatusBadRequest, "job %d: %v", i, err)
			return
		}
		jobs[i] = j
	}
	if s.closed.Load() {
		httpError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	s.started.CompareAndSwap(0, time.Now().UnixNano())
	b := &batch{
		client:    req.Client,
		priority:  req.Priority,
		jobs:      jobs,
		created:   time.Now(),
		done:      make(chan struct{}),
		results:   make([]sim.Result, len(jobs)),
		resDone:   make([]bool, len(jobs)),
		forwarded: make([]bool, len(jobs)),
		remaining: len(jobs),
	}
	s.mu.Lock()
	s.nextID++
	b.id = fmt.Sprintf("b-%06d", s.nextID)
	s.batches[b.id] = b
	over := s.maxBatches > 0 && len(s.batches) > s.maxBatches
	s.mu.Unlock()
	if over {
		s.evictBatches(time.Now())
	}
	now := time.Now()
	queued := 0
	for i := range jobs {
		if !s.queue.Push(req.Client, req.Weight, req.Priority, task{b: b, idx: i, enqueued: now}) {
			// Close raced the submission: the queue dropped this task (and
			// will drop the rest), so the batch could never finish. Roll
			// the registration back and refuse the submission; any tasks
			// already accepted are discarded by the closed queue.
			s.mu.Lock()
			delete(s.batches, b.id)
			s.mu.Unlock()
			s.m.queueDepth.Add(-int64(queued))
			httpError(w, http.StatusServiceUnavailable, "server shutting down")
			return
		}
		queued++
		s.m.queueDepth.Add(1)
	}
	s.m.submitted.Add(uint64(len(jobs)))
	if req.Wait {
		// Synchronous mode: block until the batch completes and answer
		// with the full status body — one round trip, no polling, which
		// is what a latency-measuring client wants. The request context
		// covers client disconnects and server shutdown (Close tears the
		// connection down, cancelling the context), so no waiter leaks.
		select {
		case <-b.done:
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(s.statusOf(b))
		case <-r.Context().Done():
			// Client gone or connection torn down; nothing to write.
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(SubmitResponse{
		ID:        b.id,
		Jobs:      len(jobs),
		StatusURL: "/jobs/" + b.id,
	})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	b := s.batches[id]
	s.mu.Unlock()
	if b == nil {
		httpError(w, http.StatusNotFound, "unknown batch %q", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.statusOf(b))
}

func (s *Server) statusOf(b *batch) StatusResponse {
	b.mu.Lock()
	defer b.mu.Unlock()
	done := len(b.jobs) - b.remaining
	st := StatusResponse{
		ID:       b.id,
		Client:   b.client,
		Priority: b.priority,
		Done:     done,
		Total:    len(b.jobs),
		Results:  make([]JobResult, len(b.jobs)),
	}
	switch {
	case done == 0:
		st.State = "queued"
	case b.remaining > 0:
		st.State = "running"
	default:
		st.State = "done"
	}
	if b.remaining == 0 {
		st.ElapsedSec = b.finished.Sub(b.created).Seconds()
	} else {
		st.ElapsedSec = time.Since(b.created).Seconds()
	}
	withStore := s.cfg.Store != nil
	for i := range b.jobs {
		if !b.resDone[i] {
			st.Results[i] = JobResult{Key: b.jobs[i].Key(), Done: false}
			continue
		}
		st.Results[i] = ResultJSON(b.results[i], withStore)
		st.Results[i].Forwarded = b.forwarded[i]
	}
	return st
}

func (s *Server) handleStoreGet(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Store == nil {
		httpError(w, http.StatusNotFound, "no persistent store configured")
		return
	}
	addr := r.PathValue("addr")
	// Only well-formed content addresses reach the store. The wildcard
	// captures unescaped segments, so without this gate a crafted addr
	// ("..%2F..") would be joined under the store directory and could
	// read — or, via quarantine's rename, move — files outside it. The
	// store re-checks, but rejecting here keeps the API contract explicit.
	if !store.ValidAddr(addr) {
		httpError(w, http.StatusNotFound, "not a content address (64 lowercase hex digits): %q", addr)
		return
	}
	payload, ok := s.cfg.Store.GetAddr(addr)
	if !ok {
		httpError(w, http.StatusNotFound, "no verified blob at %s", addr)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Icicle-Store-Addr", addr)
	w.Write(payload)
}

func (s *Server) handleInternalRun(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	j, err := spec.Job()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The owner executes locally, never re-forwards: /internal/run is the
	// ring's terminal hop, so a stale peer list cannot create a cycle.
	res := s.runLocal(j)
	s.m.completed.Inc()
	if res.Err != nil {
		s.m.errored.Inc()
		httpError(w, http.StatusInternalServerError, "%v", res.Err)
		return
	}
	payload, err := sim.EncodeResult(res)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encode: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(payload)
}

// healthz is the liveness body.
type healthz struct {
	Status     string       `json:"status"`
	QueueDepth int          `json:"queue_depth"`
	Batches    int          `json:"batches"`
	Workers    int          `json:"workers"`
	Peers      []string     `json:"peers,omitempty"`
	Store      *store.Stats `json:"store,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	nb := len(s.batches)
	s.mu.Unlock()
	h := healthz{
		Status:     "ok",
		QueueDepth: s.queue.Depth(),
		Batches:    nb,
		Workers:    s.workers,
		Peers:      s.cfg.Peers,
	}
	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		h.Store = &st
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(h)
}

// Progress adapts the service counters to the obs /progress shape.
func (s *Server) Progress() obs.Progress {
	done := s.m.completed.Value()
	p := obs.Progress{
		Done:      done,
		Total:     s.m.submitted.Value(),
		CacheHits: s.m.storeHits.Value() + s.m.memoHits.Value(),
	}
	if done > 0 {
		p.HitRate = float64(p.CacheHits) / float64(done)
	}
	if t := s.started.Load(); t != 0 {
		p.ElapsedSec = time.Since(time.Unix(0, t)).Seconds()
		if p.ElapsedSec > 0 {
			p.SimsPerSec = float64(done) / p.ElapsedSec
			if p.Total > done && p.SimsPerSec > 0 {
				p.ETASec = float64(p.Total-done) / p.SimsPerSec
			}
		}
	}
	return p
}

// Runner exposes the underlying sim runner (stats, tests).
func (s *Server) Runner() *sim.Runner { return s.runner }

// Workers reports the size of the executor pool (startup logging).
func (s *Server) Workers() int { return s.workers }

// Start serves the API on addr in a background goroutine, returning the
// bound address ("127.0.0.1:0" picks a free port).
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.listener = ln
	s.httpSrv = &http.Server{Handler: s.Handler()}
	go s.httpSrv.Serve(ln)
	return ln.Addr().String(), nil
}

// Close stops accepting work, releases the executor pool, and shuts the
// HTTP listener down. Queued-but-unstarted tasks are dropped (their
// batches simply never finish); in-flight jobs complete.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.queue.Close()
	close(s.janitorStop)
	s.wg.Wait()
	if s.httpSrv != nil {
		return s.httpSrv.Close()
	}
	return nil
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
