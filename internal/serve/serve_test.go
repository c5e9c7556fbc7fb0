package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"icicle/internal/obs"
	"icicle/internal/rocket"
	"icicle/internal/sample"
	"icicle/internal/sim"
	"icicle/internal/store"
)

// testPolicy is a fast sampling schedule for service tests.
func testPolicy() sample.Policy {
	return sample.Policy{Window: 2048, Period: 8192, Warmup: 2048}
}

// postJSON posts v and decodes the response into out, returning the code.
func postJSON(t *testing.T, url string, v any, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp.StatusCode
}

// pollDone polls GET {base}/jobs/{id} until state=="done" or the deadline.
func pollDone(t *testing.T, base, id string) StatusResponse {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st StatusResponse
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "done" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch %s not done before deadline: %d/%d", id, st.Done, st.Total)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// canonical strips the volatile routing/cache flags so results can be
// compared bytewise across servers, stores, and the in-process runner.
func canonical(t *testing.T, jr JobResult) []byte {
	t.Helper()
	jr.Cached = false
	jr.FromStore = false
	jr.Forwarded = false
	b, err := json.Marshal(jr)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func testSpecs() []JobSpec {
	return []JobSpec{
		{Core: "rocket", Kernel: "multiply"},
		{Core: "rocket", Kernel: "median"},
		{Core: "rocket", Kernel: "vvadd", Sample: ptr(testPolicy()), SamplePar: 2},
	}
}

func ptr[T any](v T) *T { return &v }

// mustNew fails the test on a config error (none of these tests use an
// invalid sharding config).
func mustNew(t testing.TB, cfg Config) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// End-to-end: submit through HTTP, poll to completion, and require the
// service's JSON to be byte-identical to the in-process runner's rendering
// of the same jobs; the /store blob must decode to the same result.
func TestServeEndToEnd(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := mustNew(t, Config{Store: st, QueueWorkers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var ack SubmitResponse
	code := postJSON(t, ts.URL+"/jobs", SubmitRequest{Client: "e2e", Jobs: testSpecs()}, &ack)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	if ack.Jobs != 3 || ack.ID == "" || ack.StatusURL != "/jobs/"+ack.ID {
		t.Fatalf("bad ack: %+v", ack)
	}
	status := pollDone(t, ts.URL, ack.ID)

	// Reference: a fresh private runner, no store, nothing shared.
	ref := sim.New()
	for i, spec := range testSpecs() {
		j, err := spec.Job()
		if err != nil {
			t.Fatal(err)
		}
		want := ResultJSON(ref.RunOne(j), true)
		got := status.Results[i]
		if got.Error != "" {
			t.Fatalf("job %d errored: %s", i, got.Error)
		}
		if !bytes.Equal(canonical(t, got), canonical(t, want)) {
			t.Errorf("job %d: service JSON differs from in-process runner:\n got %s\nwant %s",
				i, canonical(t, got), canonical(t, want))
		}

		// The raw blob behind /store/{addr} decodes to the same result.
		resp, err := http.Get(ts.URL + "/store/" + got.StoreAddr)
		if err != nil {
			t.Fatal(err)
		}
		payload, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job %d: GET /store/%s = %d: %s", i, got.StoreAddr, resp.StatusCode, payload)
		}
		res, err := sim.DecodeResult(payload, j)
		if err != nil {
			t.Fatalf("job %d: decode store blob: %v", i, err)
		}
		refRes := ref.RunOne(j)
		refRes.Cached, res.Cached = false, false
		refRes.FromStore, res.FromStore = false, false
		if !reflect.DeepEqual(res, refRes) {
			t.Errorf("job %d: store blob decodes to a different result", i)
		}
	}
}

// Submitting the same batch twice: the second pass completes entirely from
// the memo (no new simulations) and says so.
func TestServeMemoSecondBatch(t *testing.T) {
	reg := obs.NewRegistry()
	srv := mustNew(t, Config{Registry: reg, QueueWorkers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	specs := []JobSpec{{Core: "rocket", Kernel: "multiply"}, {Core: "rocket", Kernel: "median"}}
	var ack SubmitResponse
	postJSON(t, ts.URL+"/jobs", SubmitRequest{Jobs: specs}, &ack)
	pollDone(t, ts.URL, ack.ID)
	simulated := srv.m.simulated.Value()
	if simulated != 2 {
		t.Fatalf("first batch simulated %d, want 2", simulated)
	}
	postJSON(t, ts.URL+"/jobs", SubmitRequest{Jobs: specs}, &ack)
	st := pollDone(t, ts.URL, ack.ID)
	if got := srv.m.simulated.Value(); got != simulated {
		t.Fatalf("second identical batch simulated %d new jobs, want 0", got-simulated)
	}
	if srv.m.memoHits.Value() != 2 {
		t.Fatalf("memo hits = %d, want 2", srv.m.memoHits.Value())
	}
	for i, r := range st.Results {
		if !r.Cached {
			t.Fatalf("second-batch job %d not marked cached", i)
		}
	}
}

// API validation: malformed and unresolvable requests fail with 4xx and a
// JSON error body; nothing is enqueued.
func TestServeValidation(t *testing.T) {
	srv := mustNew(t, Config{QueueWorkers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		body string
		want int
	}{
		{"garbage body", "{not json", http.StatusBadRequest},
		{"empty jobs", `{"jobs":[]}`, http.StatusBadRequest},
		{"unknown kernel", `{"jobs":[{"core":"rocket","kernel":"nope"}]}`, http.StatusBadRequest},
		{"unknown core", `{"jobs":[{"core":"cray","kernel":"vvadd"}]}`, http.StatusBadRequest},
		{"bad boom size", `{"jobs":[{"core":"boom","kernel":"vvadd","size":"colossal"}]}`, http.StatusBadRequest},
		{"sample_par without sample", `{"jobs":[{"core":"rocket","kernel":"vvadd","sample_par":4}]}`, http.StatusBadRequest},
		// Used to pass JobSpec.Job and then panic the worker in
		// mem.NewCache, killing the server.
		{"empty rocket_config", `{"jobs":[{"core":"rocket","kernel":"towers","rocket_config":{}}]}`, http.StatusBadRequest},
		{"boom_config without caches", `{"jobs":[{"core":"boom","kernel":"vvadd","boom_config":{"Name":"x","FetchWidth":1,"DecodeWidth":1,"IssueWidth":1,"IntPorts":1,"ROBEntries":2}}]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
		if e["error"] == "" {
			t.Errorf("%s: missing JSON error body", tc.name)
		}
	}
	if d := srv.queue.Depth(); d != 0 {
		t.Fatalf("rejected submissions leaked %d tasks into the queue", d)
	}

	for _, path := range []string{"/jobs/b-999999", "/store/deadbeef", "/store/zz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

// sample_par only selects the plan engine: a huge value must not size
// anything. On a 2-slot runner the job gets at most 2 window workers, so
// at most 2 cores are ever built for it.
func TestServeHugeSampleParIsCapped(t *testing.T) {
	const slots = 2
	srv := mustNew(t, Config{QueueWorkers: 1, RunnerOpts: []sim.Option{sim.WithWorkers(slots)}})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var st StatusResponse
	code := postJSON(t, ts.URL+"/jobs", SubmitRequest{Wait: true, Jobs: []JobSpec{
		{Core: "rocket", Kernel: "towers", Sample: ptr(testPolicy()), SamplePar: 1_000_000},
	}}, &st)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if r := st.Results[0]; r.Error != "" || r.Sampled == nil || r.Sampled.Windows < 2 {
		t.Fatalf("job result %+v", r)
	}
	stats := srv.Runner().Stats()
	if stats.CoreBuilds > slots {
		t.Fatalf("built %d cores on a %d-slot runner", stats.CoreBuilds, slots)
	}
	if stats.WindowWorkers < 1 || stats.WindowWorkers > slots {
		t.Fatalf("granted %d window workers on a %d-slot runner", stats.WindowWorkers, slots)
	}
}

// healthz reports liveness plus queue/store posture; /metrics exposes the
// icicle_serve_* family.
func TestServeHealthzAndMetrics(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := mustNew(t, Config{Store: st, QueueWorkers: 3})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Status  string       `json:"status"`
		Workers int          `json:"workers"`
		Store   *store.Stats `json:"store"`
	}
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if h.Status != "ok" || h.Workers != 3 || h.Store == nil {
		t.Fatalf("healthz = %+v", h)
	}

	var ack SubmitResponse
	postJSON(t, ts.URL+"/jobs", SubmitRequest{Jobs: []JobSpec{{Kernel: "multiply"}}}, &ack)
	pollDone(t, ts.URL, ack.ID)
	text := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		"icicle_serve_jobs_submitted_total 1",
		"icicle_serve_jobs_completed_total 1",
		"icicle_serve_simulated_total 1",
		"icicle_sim_cache_misses_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// startShard builds a server bound to a pre-opened listener so the ring
// URLs are known before construction.
func startShard(t *testing.T, cfg Config, ln net.Listener) *Server {
	t.Helper()
	srv := mustNew(t, cfg)
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	t.Cleanup(func() { srv.Close(); hs.Close() })
	return srv
}

func listen(t *testing.T) (net.Listener, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln, "http://" + ln.Addr().String()
}

// shardSpecs builds job specs across enough distinct config fingerprints
// that a 2-peer ring necessarily splits them.
func shardSpecs(t *testing.T, ringOf func() *ring, wantOwner string) []JobSpec {
	t.Helper()
	var specs []JobSpec
	found := false
	for d := 0; d < 16; d++ {
		cfg := rocket.DefaultConfig()
		cfg.MulLatency += d
		spec := JobSpec{Core: "rocket", Kernel: "multiply", Rocket: &cfg}
		j, err := spec.Job()
		if err != nil {
			t.Fatal(err)
		}
		if ringOf().owner(j.ConfigFingerprint()) == wantOwner {
			specs = append(specs, spec)
			found = true
			if len(specs) == 2 {
				break
			}
		}
	}
	if !found {
		t.Fatal("no config hashed to the wanted owner in 16 tries")
	}
	return specs
}

// Two shards: jobs whose config fingerprint belongs to the peer are
// forwarded there, results are identical to local execution, and the
// peer's runner (not the submitter's) did the simulating.
func TestServeShardForwarding(t *testing.T) {
	lnA, urlA := listen(t)
	lnB, urlB := listen(t)
	peers := []string{urlA, urlB}
	regA, regB := obs.NewRegistry(), obs.NewRegistry()
	a := startShard(t, Config{Registry: regA, Self: urlA, Peers: peers, QueueWorkers: 2}, lnA)
	b := startShard(t, Config{Registry: regB, Self: urlB, Peers: peers, QueueWorkers: 2}, lnB)

	// Jobs owned by B, submitted to A.
	specs := shardSpecs(t, func() *ring { return a.ring }, urlB)
	var ack SubmitResponse
	postJSON(t, urlA+"/jobs", SubmitRequest{Client: "shard", Jobs: specs}, &ack)
	st := pollDone(t, urlA, ack.ID)

	ref := sim.New()
	for i, spec := range specs {
		r := st.Results[i]
		if r.Error != "" {
			t.Fatalf("job %d errored: %s", i, r.Error)
		}
		if !r.Forwarded {
			t.Errorf("job %d not forwarded although owned by peer", i)
		}
		j, _ := spec.Job()
		want := ResultJSON(ref.RunOne(j), false)
		if !bytes.Equal(canonical(t, r), canonical(t, want)) {
			t.Errorf("job %d: forwarded result differs from local reference", i)
		}
	}
	if got := a.m.forwarded.Value(); got != uint64(len(specs)) {
		t.Errorf("submitter forwarded %d, want %d", got, len(specs))
	}
	if got := a.m.simulated.Value(); got != 0 {
		t.Errorf("submitter simulated %d jobs that belonged to the peer", got)
	}
	if got := b.m.simulated.Value(); got != uint64(len(specs)) {
		t.Errorf("peer simulated %d, want %d", got, len(specs))
	}
}

// A dead peer degrades to local execution: every job still completes, the
// fallback counter records the failures, and nothing is marked forwarded.
func TestServeShardFallback(t *testing.T) {
	lnA, urlA := listen(t)
	// Reserve an address and close it so the peer is definitely dead.
	lnDead, urlDead := listen(t)
	lnDead.Close()
	peers := []string{urlA, urlDead}
	a := startShard(t, Config{Registry: obs.NewRegistry(), Self: urlA, Peers: peers, QueueWorkers: 2}, lnA)

	specs := shardSpecs(t, func() *ring { return a.ring }, urlDead)
	var ack SubmitResponse
	postJSON(t, urlA+"/jobs", SubmitRequest{Jobs: specs}, &ack)
	st := pollDone(t, urlA, ack.ID)
	for i, r := range st.Results {
		if r.Error != "" {
			t.Fatalf("job %d errored instead of falling back: %s", i, r.Error)
		}
		if r.Forwarded {
			t.Errorf("job %d marked forwarded to a dead peer", i)
		}
	}
	if got := a.m.fallback.Value(); got != uint64(len(specs)) {
		t.Errorf("fallback count = %d, want %d", got, len(specs))
	}
	if got := a.m.simulated.Value(); got != uint64(len(specs)) {
		t.Errorf("local simulations = %d, want %d", got, len(specs))
	}
}

// Service-level fairness under synthetic multi-client load: one worker, a
// stub executor, a flooding client and a light client — the light client's
// single job must not wait behind the whole flood.
func TestServeFairnessUnderLoad(t *testing.T) {
	srv := mustNew(t, Config{QueueWorkers: 1})
	defer srv.Close()
	var order []string
	var mu sync.Mutex
	block := make(chan struct{})
	srv.exec = func(j sim.Job) sim.Result {
		<-block // hold the worker until both batches are queued
		mu.Lock()
		order = append(order, j.Kernel.Name)
		mu.Unlock()
		return sim.Result{Job: j}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	flood := make([]JobSpec, 30)
	for i := range flood {
		flood[i] = JobSpec{Core: "rocket", Kernel: "vvadd"}
	}
	var ackF, ackL SubmitResponse
	postJSON(t, ts.URL+"/jobs", SubmitRequest{Client: "flood", Jobs: flood}, &ackF)
	postJSON(t, ts.URL+"/jobs", SubmitRequest{Client: "light", Jobs: []JobSpec{{Core: "rocket", Kernel: "towers"}}}, &ackL)
	close(block)
	pollDone(t, ts.URL, ackL.ID)

	mu.Lock()
	defer mu.Unlock()
	pos := -1
	for i, name := range order {
		if name == "towers" {
			pos = i
			break
		}
	}
	// The first pop may already be in flight when light submits; fairness
	// then guarantees the very next slot. Allow a little slack.
	if pos < 0 || pos > 3 {
		t.Fatalf("light client's job ran at position %d of %d, starved by the flood", pos, len(order))
	}
}

// Priority classes at the service level: high-priority batches preempt the
// queued backlog of lower classes.
func TestServePriorityUnderLoad(t *testing.T) {
	srv := mustNew(t, Config{QueueWorkers: 1})
	defer srv.Close()
	var order []string
	var mu sync.Mutex
	block := make(chan struct{})
	srv.exec = func(j sim.Job) sim.Result {
		<-block
		mu.Lock()
		order = append(order, j.Kernel.Name)
		mu.Unlock()
		return sim.Result{Job: j}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	bulk := make([]JobSpec, 10)
	for i := range bulk {
		bulk[i] = JobSpec{Core: "rocket", Kernel: "vvadd"}
	}
	var ackB, ackH SubmitResponse
	postJSON(t, ts.URL+"/jobs", SubmitRequest{Client: "bulk", Priority: 0, Jobs: bulk}, &ackB)
	postJSON(t, ts.URL+"/jobs", SubmitRequest{Client: "urgent", Priority: 9, Jobs: []JobSpec{{Core: "rocket", Kernel: "towers"}}}, &ackH)
	close(block)
	pollDone(t, ts.URL, ackH.ID)

	mu.Lock()
	defer mu.Unlock()
	pos := -1
	for i, name := range order {
		if name == "towers" {
			pos = i
			break
		}
	}
	if pos < 0 || pos > 1 {
		t.Fatalf("priority-9 job ran at position %d, behind the priority-0 backlog", pos)
	}
}

// Close is idempotent and racing submissions either complete or are
// cleanly refused with 503 — never hang.
func TestServeCloseRefusesNewWork(t *testing.T) {
	srv := mustNew(t, Config{QueueWorkers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	code := postJSON(t, ts.URL+"/jobs", SubmitRequest{Jobs: []JobSpec{{Kernel: "multiply"}}}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit after Close = %d, want 503", code)
	}
}

// Sharding is rejected at construction when the node cannot recognise
// itself on the ring: it would forward 100% of jobs — its own included —
// and serve them only through the per-job fallback path.
func TestServeShardingConfigValidation(t *testing.T) {
	if _, err := New(Config{Peers: []string{"http://a", "http://b"}}); err == nil {
		t.Fatal("New accepted Peers without Self")
	}
	if _, err := New(Config{Self: "http://c", Peers: []string{"http://a", "http://b"}}); err == nil {
		t.Fatal("New accepted a Self absent from Peers")
	}
	srv, err := New(Config{Self: "http://a", Peers: []string{"http://a", "http://b"}, QueueWorkers: 1})
	if err != nil {
		t.Fatalf("valid sharding config rejected: %v", err)
	}
	srv.Close()
	// Solo (no peers) never needs Self.
	srv = mustNew(t, Config{QueueWorkers: 1})
	srv.Close()
}

// GET /store rejects anything that is not a content address before the
// store layer sees it: a traversal-shaped addr must 404 and must not
// move or read files outside objects/ (quarantine renames by addr).
func TestServeStoreGetRejectsTraversal(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := mustNew(t, Config{Store: st, QueueWorkers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	victim := filepath.Join(dir, "victim")
	if err := os.WriteFile(victim, []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{
		"/store/..%2Fvictim",
		"/store/..%2F..%2Fetc%2Fpasswd",
		"/store/aa%2F..%2F..%2Fvictim",
		"/store/" + strings.Repeat("A", 64), // uppercase: not an address
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
	if _, err := os.Stat(victim); err != nil {
		t.Fatalf("victim file was moved by a /store request: %v", err)
	}
	if q := st.Stats().Quarantined; q != 0 {
		t.Fatalf("traversal requests caused %d quarantine renames", q)
	}
}

// Completed batches are evicted after the TTL — GET /jobs/{id} then
// 404s — so a long-running server does not accumulate every batch it
// ever served.
func TestServeBatchRetentionTTL(t *testing.T) {
	srv := mustNew(t, Config{QueueWorkers: 1, BatchTTL: 30 * time.Millisecond})
	defer srv.Close()
	srv.exec = func(j sim.Job) sim.Result { return sim.Result{Job: j} }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var ack SubmitResponse
	postJSON(t, ts.URL+"/jobs", SubmitRequest{Jobs: []JobSpec{{Kernel: "multiply"}}}, &ack)
	pollDone(t, ts.URL, ack.ID)

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/jobs/" + ack.ID)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("completed batch still queryable long past its TTL")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.m.batchesEvicted.Value(); got == 0 {
		t.Fatal("eviction counter did not move")
	}
}

// The MaxBatches cap evicts oldest-completed first and never a batch
// that is still running.
func TestServeBatchRetentionCap(t *testing.T) {
	// Two workers: one sits on the blocked "towers" batch while the other
	// drains the short batches.
	srv := mustNew(t, Config{QueueWorkers: 2, BatchTTL: -1, MaxBatches: 2})
	defer srv.Close()
	block := make(chan struct{})
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(block) }) }
	defer release() // a failing poll must not leave Close waiting on the worker
	srv.exec = func(j sim.Job) sim.Result {
		if j.Kernel.Name == "towers" {
			<-block // keep this batch running
		}
		return sim.Result{Job: j}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var running SubmitResponse
	postJSON(t, ts.URL+"/jobs", SubmitRequest{Jobs: []JobSpec{{Kernel: "towers"}}}, &running)
	var done []SubmitResponse
	for i := 0; i < 4; i++ {
		var ack SubmitResponse
		postJSON(t, ts.URL+"/jobs", SubmitRequest{Jobs: []JobSpec{{Kernel: "multiply"}}}, &ack)
		pollDone(t, ts.URL, ack.ID)
		done = append(done, ack)
	}

	srv.evictBatches(time.Now())
	srv.mu.Lock()
	n := len(srv.batches)
	_, runningKept := srv.batches[running.ID]
	_, newestKept := srv.batches[done[3].ID]
	_, oldestKept := srv.batches[done[0].ID]
	srv.mu.Unlock()
	if !runningKept {
		t.Fatal("retention evicted a batch that is still running")
	}
	if n != 2 {
		t.Fatalf("retained %d batches, want 2 (cap)", n)
	}
	if !newestKept || oldestKept {
		t.Fatalf("cap did not evict oldest-completed first (newest kept=%v, oldest kept=%v)", newestKept, oldestKept)
	}
	release()
	pollDone(t, ts.URL, running.ID)
}

// A submission that races Close past the fast-path check is refused with
// 503 and fully rolled back — no orphan batch that polls "queued"
// forever, no leaked queue-depth.
func TestServeSubmitCloseRaceRollsBack(t *testing.T) {
	srv := mustNew(t, Config{QueueWorkers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Model the race: the queue closes after handleSubmit's closed check
	// would have passed but before its pushes land.
	srv.queue.Close()
	code := postJSON(t, ts.URL+"/jobs", SubmitRequest{Jobs: []JobSpec{{Kernel: "multiply"}, {Kernel: "median"}}}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit against a closed queue = %d, want 503", code)
	}
	srv.mu.Lock()
	n := len(srv.batches)
	srv.mu.Unlock()
	if n != 0 {
		t.Fatalf("rejected submission left %d orphan batches registered", n)
	}
	if d := srv.m.queueDepth.Value(); d != 0 {
		t.Fatalf("rejected submission leaked queue depth %d", d)
	}
}

// Wait-mode submission: one POST blocks until the batch completes and
// returns the full status; the per-endpoint duration and per-class
// queue-wait histograms record it.
func TestServeSubmitWaitMode(t *testing.T) {
	reg := obs.NewRegistry()
	srv := mustNew(t, Config{Registry: reg, QueueWorkers: 2})
	defer srv.Close()
	srv.exec = func(j sim.Job) sim.Result {
		time.Sleep(2 * time.Millisecond)
		return sim.Result{Job: j}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var st StatusResponse
	code := postJSON(t, ts.URL+"/jobs", SubmitRequest{
		Client:   "sync",
		Priority: 3,
		Wait:     true,
		Jobs:     []JobSpec{{Core: "rocket", Kernel: "multiply"}, {Core: "rocket", Kernel: "median"}},
	}, &st)
	if code != http.StatusOK {
		t.Fatalf("wait-mode submit status = %d, want 200", code)
	}
	if st.State != "done" || st.Done != 2 {
		t.Fatalf("wait-mode response not a completed status: %+v", st)
	}
	for i, r := range st.Results {
		if !r.Done {
			t.Fatalf("result %d not done in wait-mode response", i)
		}
	}

	var text bytes.Buffer
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	out := text.String()
	for _, want := range []string{
		`icicle_serve_request_duration_seconds_count{endpoint="/jobs"} 1`,
		`icicle_serve_queue_wait_seconds_count{class="3"} 2`,
		`icicle_serve_endpoint_inflight{endpoint="/jobs"} 0`,
		"icicle_serve_inflight 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
	// The wait-mode request's measured duration must cover the jobs'
	// execution (≥2ms stub sleep), proving it blocked.
	sc, err := obs.ParsePrometheus(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	h := sc.Hist(`icicle_serve_request_duration_seconds{endpoint="/jobs"}`)
	if h == nil {
		t.Fatal("no /jobs duration series")
	}
	if q := h.Quantile(1); q < 0.002 {
		t.Errorf("wait-mode /jobs duration p100 = %gs, want >= 2ms", q)
	}
}
