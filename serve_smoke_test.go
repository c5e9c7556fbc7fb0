// Service smoke: end-to-end proof of the icicle-serve contract through
// the real HTTP stack. A server's JSON must be byte-identical to the
// in-process runner; a second server sharing the persistent store must
// answer the same sweep with zero simulations (cross-process reuse); a
// corrupted blob must be quarantined and transparently recomputed, never
// served; concurrent wait-mode clients in two priority classes must all
// get completed, identical results. This is what `make serve-smoke`
// (part of `make ci`) runs, under the race detector. The cold-vs-warm
// benchmark at the bottom measures what the store buys through the HTTP
// path.
package icicle_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"icicle/internal/obs"
	"icicle/internal/sample"
	"icicle/internal/serve"
	"icicle/internal/sim"
	"icicle/internal/store"
)

// serveSmokeSpecs is the smoke sweep: two full-detail rocket kernels plus
// one sampled job so the window-checkpoint persistence path is exercised.
func serveSmokeSpecs() []serve.JobSpec {
	p := sample.Policy{Window: 2048, Period: 8192, Warmup: 2048}
	return []serve.JobSpec{
		{Core: "rocket", Kernel: "multiply"},
		{Core: "rocket", Kernel: "median"},
		{Core: "rocket", Kernel: "vvadd", Sample: &p, SamplePar: 2},
	}
}

// mustServe builds a server, failing the test on a config error.
func mustServe(t testing.TB, cfg serve.Config) *serve.Server {
	t.Helper()
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func submitAndWait(t testing.TB, base string, req serve.SubmitRequest) serve.StatusResponse {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ack serve.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, decode err %v", resp.StatusCode, err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := http.Get(base + "/jobs/" + ack.ID)
		if err != nil {
			t.Fatal(err)
		}
		var st serve.StatusResponse
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "done" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch %s stuck at %d/%d", ack.ID, st.Done, st.Total)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// canonicalJSON renders a result with the volatile cache/routing flags
// stripped, for bytewise comparison across servers and the local runner.
func canonicalJSON(t testing.TB, jr serve.JobResult) []byte {
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

func scrape(t testing.TB, base string) string {
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

// metricValue extracts one un-labeled counter/gauge sample from
// Prometheus text exposition.
func metricValue(t testing.TB, text, name string) string {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name+" ") {
			return strings.TrimPrefix(line, name+" ")
		}
	}
	t.Fatalf("metric %s not in exposition", name)
	return ""
}

// The service's JSON must match the in-process runner byte for byte —
// same cycles, same TMA split, same sampled report, same rendering.
func TestServeSmokeByteIdentity(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := mustServe(t, serve.Config{Store: st, Registry: obs.NewRegistry(), QueueWorkers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status := submitAndWait(t, ts.URL, serve.SubmitRequest{Client: "smoke", Jobs: serveSmokeSpecs()})
	ref := sim.New()
	for i, spec := range serveSmokeSpecs() {
		j, err := spec.Job()
		if err != nil {
			t.Fatal(err)
		}
		got := canonicalJSON(t, status.Results[i])
		want := canonicalJSON(t, serve.ResultJSON(ref.RunOne(j), true))
		if !bytes.Equal(got, want) {
			t.Errorf("job %d (%s): HTTP result differs from in-process runner:\n got %s\nwant %s",
				i, spec.Kernel, got, want)
		}
	}
}

// Cross-process reuse: a second server opening the same store directory
// serves the whole sweep from persisted blobs — byte-identical results,
// zero simulations, and the counters prove it.
func TestServeSmokeCrossProcessStoreHit(t *testing.T) {
	dir := t.TempDir()
	specs := serveSmokeSpecs()

	// First "process": simulate and persist.
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := mustServe(t, serve.Config{Store: st1, Registry: obs.NewRegistry(), QueueWorkers: 2})
	ts1 := httptest.NewServer(srv1.Handler())
	first := submitAndWait(t, ts1.URL, serve.SubmitRequest{Jobs: specs})
	ts1.Close()
	srv1.Close()

	// Second "process": fresh server, fresh registry, same store dir.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg2 := obs.NewRegistry()
	srv2 := mustServe(t, serve.Config{Store: st2, Registry: reg2, QueueWorkers: 2})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	second := submitAndWait(t, ts2.URL, serve.SubmitRequest{Jobs: specs})

	for i := range specs {
		if !second.Results[i].FromStore {
			t.Errorf("job %d on the second server not marked from_store", i)
		}
		got := canonicalJSON(t, second.Results[i])
		want := canonicalJSON(t, first.Results[i])
		if !bytes.Equal(got, want) {
			t.Errorf("job %d: second server's bytes differ from the first's:\n got %s\nwant %s", i, got, want)
		}
	}
	text := scrape(t, ts2.URL)
	if v := metricValue(t, text, "icicle_serve_store_hits_total"); v != "3" {
		t.Errorf("second server icicle_serve_store_hits_total = %s, want 3", v)
	}
	if v := metricValue(t, text, "icicle_serve_simulated_total"); v != "0" {
		t.Errorf("second server icicle_serve_simulated_total = %s, want 0", v)
	}
	// The runner agrees: nothing was simulated in the second process.
	if v := metricValue(t, text, "icicle_sim_cache_misses_total"); v != "0" {
		t.Errorf("second server icicle_sim_cache_misses_total = %s, want 0", v)
	}
	if v := metricValue(t, text, "icicle_sim_store_hits_total"); v != "3" {
		t.Errorf("second server icicle_sim_store_hits_total = %s, want 3", v)
	}
}

// Corruption safety: flip bits in a persisted blob; the next server must
// quarantine it, recompute the result (correct bytes, never the bad
// blob), and re-persist a verified copy.
func TestServeSmokeCorruptedBlobRecovery(t *testing.T) {
	dir := t.TempDir()
	spec := serve.JobSpec{Core: "rocket", Kernel: "multiply"}
	j, err := spec.Job()
	if err != nil {
		t.Fatal(err)
	}
	addr := store.Addr(sim.StoreKey(j))

	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := mustServe(t, serve.Config{Store: st1, Registry: obs.NewRegistry(), QueueWorkers: 1})
	ts1 := httptest.NewServer(srv1.Handler())
	first := submitAndWait(t, ts1.URL, serve.SubmitRequest{Jobs: []serve.JobSpec{spec}})
	ts1.Close()
	srv1.Close()

	// Corrupt the payload on disk (past the 44-byte header).
	blobPath := filepath.Join(dir, "objects", addr[:2], addr)
	raw, err := os.ReadFile(blobPath)
	if err != nil {
		t.Fatalf("read blob %s: %v", blobPath, err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(blobPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := mustServe(t, serve.Config{Store: st2, Registry: obs.NewRegistry(), QueueWorkers: 1})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	second := submitAndWait(t, ts2.URL, serve.SubmitRequest{Jobs: []serve.JobSpec{spec}})

	if second.Results[0].FromStore {
		t.Error("corrupted blob was served as a store hit")
	}
	if !bytes.Equal(canonicalJSON(t, second.Results[0]), canonicalJSON(t, first.Results[0])) {
		t.Error("recomputed result differs from the original")
	}
	if q := st2.Stats().Quarantined; q != 1 {
		t.Errorf("quarantined = %d, want 1", q)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", addr)); err != nil {
		t.Errorf("corrupted blob not in quarantine/: %v", err)
	}

	// The recompute re-persisted a verified blob: /store serves it again.
	resp, err := http.Get(ts2.URL + "/store/" + addr)
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /store/%s after recompute = %d", addr, resp.StatusCode)
	}
	res, err := sim.DecodeResult(payload, j)
	if err != nil {
		t.Fatalf("re-persisted blob does not decode: %v", err)
	}
	if !bytes.Equal(canonicalJSON(t, serve.ResultJSON(res, true)), canonicalJSON(t, first.Results[0])) {
		t.Error("re-persisted blob renders differently from the original result")
	}
}

// Concurrent synchronous clients: many wait-mode POSTs from two
// priority classes against one simulating server. Every response must
// be a completed 200 whose result renders exactly like the warm-up's,
// each class's queue-wait histogram must count exactly the jobs sent in
// it, and no request may be left in flight.
func TestServeSmokeConcurrentWaitMode(t *testing.T) {
	reg := obs.NewRegistry()
	srv := mustServe(t, serve.Config{Registry: reg, QueueWorkers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	specs := []serve.JobSpec{
		{Core: "rocket", Kernel: "vvadd"},
		{Core: "rocket", Kernel: "multiply"},
	}
	// Warm the memo at a priority the test does not otherwise use, so the
	// class 0 and 2 histograms count only the concurrent requests.
	warm := submitAndWait(t, ts.URL, serve.SubmitRequest{Client: "warmup", Priority: 1, Jobs: specs})
	var want [][]byte
	for _, r := range warm.Results {
		want = append(want, canonicalJSON(t, r))
	}

	const clients, perClient = 8, 4
	type reply struct {
		code int
		raw  []byte
		err  error
	}
	replies := make([][perClient]reply, clients)
	sent := map[int]int{}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		prio := 2 * (c % 2)
		sent[prio] += perClient
		wg.Add(1)
		go func(c, prio int) {
			defer wg.Done()
			for i := range replies[c] {
				body, _ := json.Marshal(serve.SubmitRequest{
					Client: fmt.Sprintf("c%d", c), Priority: prio, Wait: true,
					Jobs: []serve.JobSpec{specs[(c+i)%len(specs)]},
				})
				r := &replies[c][i]
				resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
				if err != nil {
					r.err = err
					continue
				}
				// Read to EOF: the response ends only after the handler
				// (and its in-flight accounting) has returned.
				r.code = resp.StatusCode
				r.raw, r.err = io.ReadAll(resp.Body)
				resp.Body.Close()
			}
		}(c, prio)
	}
	wg.Wait()

	for c := range replies {
		for i, r := range replies[c] {
			k := (c + i) % len(specs)
			if r.err != nil || r.code != http.StatusOK {
				t.Errorf("client %d request %d: status %d, err %v", c, i, r.code, r.err)
				continue
			}
			var st serve.StatusResponse
			if err := json.Unmarshal(r.raw, &st); err != nil {
				t.Errorf("client %d request %d: %v", c, i, err)
				continue
			}
			if st.State != "done" || len(st.Results) != 1 {
				t.Errorf("client %d request %d: not a completed status: state %q, %d results", c, i, st.State, len(st.Results))
				continue
			}
			if got := canonicalJSON(t, st.Results[0]); !bytes.Equal(got, want[k]) {
				t.Errorf("client %d request %d (%s): result differs from the warm-up's:\n got %s\nwant %s",
					c, i, specs[k].Kernel, got, want[k])
			}
		}
	}

	var text strings.Builder
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	sc, err := obs.ParsePrometheus(strings.NewReader(text.String()))
	if err != nil {
		t.Fatal(err)
	}
	for prio, n := range sent {
		name := fmt.Sprintf(`icicle_serve_queue_wait_seconds_count{class="%d"}`, prio)
		if got := sc.Value(name); got != float64(n) {
			t.Errorf("%s = %g, want %d", name, got, n)
		}
	}
	if got := sc.Value("icicle_serve_inflight"); got != 0 {
		t.Errorf("icicle_serve_inflight = %g after every response, want 0", got)
	}
}

// BenchmarkServeColdVsWarm measures one full-detail job through the HTTP
// path, cold (fresh store each iteration: simulate + persist) vs warm
// (fresh server each iteration, shared store: blob hit, zero simulation).
// The ratio is the store's value for repeated sweeps; CHANGES.md's
// icicle-serve entry records the measured numbers.
func BenchmarkServeColdVsWarm(b *testing.B) {
	spec := serve.JobSpec{Core: "rocket", Kernel: "multiply"}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			st, err := store.Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			srv := mustServe(b, serve.Config{Store: st, Registry: obs.NewRegistry(), QueueWorkers: 1})
			ts := httptest.NewServer(srv.Handler())
			b.StartTimer()
			submitAndWait(b, ts.URL, serve.SubmitRequest{Jobs: []serve.JobSpec{spec}})
			b.StopTimer()
			ts.Close()
			srv.Close()
			b.StartTimer()
		}
	})

	b.Run("warm", func(b *testing.B) {
		dir := b.TempDir()
		seed, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		srv := mustServe(b, serve.Config{Store: seed, Registry: obs.NewRegistry(), QueueWorkers: 1})
		ts := httptest.NewServer(srv.Handler())
		submitAndWait(b, ts.URL, serve.SubmitRequest{Jobs: []serve.JobSpec{spec}})
		ts.Close()
		srv.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			st, err := store.Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			srv := mustServe(b, serve.Config{Store: st, Registry: obs.NewRegistry(), QueueWorkers: 1})
			ts := httptest.NewServer(srv.Handler())
			b.StartTimer()
			submitAndWait(b, ts.URL, serve.SubmitRequest{Jobs: []serve.JobSpec{spec}})
			b.StopTimer()
			ts.Close()
			srv.Close()
			b.StartTimer()
		}
	})
}
