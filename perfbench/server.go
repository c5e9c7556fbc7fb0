package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"icicle/internal/obs"
	"icicle/internal/serve"
)

// queueWorkers is the icicle-serve executor count (one per host core).
const queueWorkers = 2

// server is one icicle-serve child process.
type server struct {
	cmd    *exec.Cmd
	base   string        // http://127.0.0.1:port
	setup  time.Duration // process start until /healthz answered
	client *http.Client
	logs   chan []string // the server's stderr lines, delivered at exit
}

// startServer launches icicle-serve over storeDir with 2 queue workers
// and waits until /healthz answers.
func startServer(e *env, storeDir string) (*server, error) {
	start := time.Now()
	cmd := exec.Command(e.serveBin, "-addr", "127.0.0.1:0", "-store", storeDir,
		"-workers", fmt.Sprint(queueWorkers), "-j", fmt.Sprint(queueWorkers))
	cmd.SysProcAttr = childAttr()
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, logs: make(chan []string, 1), client: &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2},
	}}
	addr := make(chan string, 1)
	go func() {
		var lines []string
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if _, a, ok := strings.Cut(line, "listening on http://"); ok {
				a, _, _ = strings.Cut(a, " ")
				addr <- a
			}
			lines = append(lines, line)
		}
		close(addr)
		s.logs <- lines
	}()
	a, ok := <-addr
	if !ok {
		lines := <-s.logs
		cmd.Wait()
		return nil, fmt.Errorf("icicle-serve exited before listening: %s", strings.Join(lines, "\n"))
	}
	s.base = "http://" + a
	for {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 30*time.Second {
			s.stop()
			return nil, fmt.Errorf("icicle-serve not healthy after 30s")
		}
		time.Sleep(time.Millisecond)
	}
	s.setup = time.Since(start)
	return s, nil
}

// extraSetups is how many set-ups a run times beyond its rounds' own,
// so setup_s is a median over enough samples to be steady.
const extraSetups = 15

// setupSamples times extraSetups set-ups that serve no traffic: prepare
// a store directory (untimed: it is the benchmark's work, not the
// server's), then start a server until it is healthy.
func setupSamples(e *env, prepare func(dir string) error) ([]float64, error) {
	var out []float64
	for i := 0; i < extraSetups; i++ {
		dir := filepath.Join(e.work, fmt.Sprintf("setup-%d", i))
		if err := prepare(dir); err != nil {
			return nil, err
		}
		srv, err := startServer(e, dir)
		if err != nil {
			return nil, err
		}
		out = append(out, srv.setup.Seconds())
		srv.stop()
	}
	return out, nil
}

// stop shuts the server down (SIGTERM, then SIGKILL after 10 s), waits
// for it, and returns its peak RSS in MB.
func (s *server) stop() float64 {
	s.client.CloseIdleConnections()
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			s.cmd.Process.Kill()
		}
	}()
	<-s.logs // stderr drained: the process has closed it
	s.cmd.Wait()
	close(done)
	return peakRSSMB(s.cmd.ProcessState)
}

// childAttr makes a child die with the benchmark, so a killed run
// leaves no server or sweep process behind.
func childAttr() *syscall.SysProcAttr { return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} }

func peakRSSMB(ps *os.ProcessState) float64 {
	if ps == nil {
		return 0
	}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// submit posts one wait-mode job and returns its API result.
func (s *server) submit(spec serve.JobSpec, priority int) (serve.JobResult, error) {
	body, err := json.Marshal(serve.SubmitRequest{Client: "perfbench", Priority: priority, Jobs: []serve.JobSpec{spec}, Wait: true})
	if err != nil {
		return serve.JobResult{}, err
	}
	resp, err := s.client.Post(s.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return serve.JobResult{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return serve.JobResult{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return serve.JobResult{}, fmt.Errorf("POST /jobs: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var st serve.StatusResponse
	if err := json.Unmarshal(data, &st); err != nil {
		return serve.JobResult{}, fmt.Errorf("POST /jobs: %w", err)
	}
	if len(st.Results) != 1 {
		return serve.JobResult{}, fmt.Errorf("POST /jobs: %d results for one job", len(st.Results))
	}
	return st.Results[0], nil
}

// blob fetches a raw store blob.
func (s *server) blob(addr string) ([]byte, error) {
	resp, err := s.client.Get(s.base + "/store/" + addr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /store: %s", resp.Status)
	}
	return data, nil
}

func (s *server) scrape() (*obs.Scraped, error) { return obs.ScrapeURL(s.base + "/metrics") }

// scrapeLayers turns one server's /metrics (a fresh server per round,
// so its counters cover exactly that round) into per-layer counts and
// queue-wait quantiles.
func scrapeLayers(m metrics, d *obs.Scraped) {
	// The runner's own counters split memo from store hits; the serve
	// counters file a memo hit on a store-seeded entry as a store hit.
	m.set("serve.memo_hits", d.Value("icicle_sim_cache_hits_total"), "count")
	m.set("serve.store_hits", d.Value("icicle_sim_store_hits_total"), "count")
	m.set("serve.simulated", d.Value("icicle_serve_simulated_total"), "count")
	m.set("store.writes", d.Value("icicle_store_writes_total"), "count")
	m.set("sample.windows", d.Value("icicle_sample_windows_total"), "count")
	if h := d.Hist("icicle_serve_queue_wait_seconds"); h != nil {
		m.set("serve.queue_wait_ms.p50", 1e3*h.Quantile(0.5), "ms")
		m.set("serve.queue_wait_ms.p99", 1e3*h.Quantile(0.99), "ms")
	}
	for _, class := range []string{"0", "2"} {
		if h := d.Hist(obs.LabeledName("icicle_serve_queue_wait_seconds", "class", class)); h != nil {
			m.set("serve.queue_wait_ms.class"+class, 1e3*h.Quantile(0.5), "ms")
		}
	}
}
