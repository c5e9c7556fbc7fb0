package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"icicle/internal/serve"
	"icicle/internal/sim"
)

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n          int
		want, useQ float64
	}{
		{1000, 0.99, 0.99}, // exactly 10 beyond rank 990
		{500, 0.99, 0.98},  // p99 would leave 5 beyond: fall back to p98
		{144, 0.90, 0.90},
		{50, 0.90, 0.80},
		{15, 0.99, 0.50}, // never below the median
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[tc.n-1-i] = float64(i) // unsorted input
		}
		q, v := tailQuantile(xs, tc.want)
		if math.Abs(q-tc.useQ) > 1e-12 {
			t.Errorf("n=%d want p%v: used p%v, expected p%v", tc.n, 100*tc.want, 100*q, 100*tc.useQ)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if tc.n >= 2*minTail && beyond < minTail {
			t.Errorf("n=%d: %d samples beyond p%v, want >= %d", tc.n, beyond, 100*q, minTail)
		}
	}
}

func TestBestOfKeepsEachOperationsMinimum(t *testing.T) {
	b := bestOf{}
	for _, r := range []struct {
		key string
		v   float64
	}{{"a", 5}, {"b", 7}, {"a", 3}, {"b", 9}, {"a", 4}} {
		b.add(r.key, r.v)
	}
	if b["a"] != 3 || b["b"] != 7 || len(b.values()) != 2 {
		t.Fatalf("bestOf = %v, want a=3 b=7", b)
	}
}

func TestLatencyCountsFromIntendedSend(t *testing.T) {
	t0 := time.Unix(0, 0)
	l := latency{Intended: t0, Sent: t0.Add(30 * time.Millisecond), Done: t0.Add(50 * time.Millisecond)}
	if l.Latency() != 50*time.Millisecond || l.Late() != 30*time.Millisecond {
		t.Fatalf("latency %v late %v, want 50ms and 30ms", l.Latency(), l.Late())
	}
	early := latency{Intended: t0, Sent: t0.Add(-time.Millisecond), Done: t0.Add(time.Millisecond)}
	if early.Late() != 0 {
		t.Fatalf("a request sent early is not late, got %v", early.Late())
	}
}

// With two lanes of three requests all due at once, each taking 20 ms,
// the last of each lane waits 40 ms for its connection: its latency
// counts that wait, its service time does not.
func TestOpenLoopChargesStallsToDelayedRequests(t *testing.T) {
	const service = 20 * time.Millisecond
	lanes := [][]int{{0, 2, 4}, {1, 3, 5}}
	lat, errs := openLoop(time.Now(), make([]time.Duration, 6), lanes, func(int) error {
		time.Sleep(service)
		return nil
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	last := lat[5]
	if got := last.Latency(); got < 3*service-5*time.Millisecond {
		t.Errorf("last request latency %v, want about %v (two waits plus service)", got, 3*service)
	}
	if got := last.Late(); got < 2*service-5*time.Millisecond {
		t.Errorf("last request left %v late, want about %v", got, 2*service)
	}
	if svc := last.Done.Sub(last.Sent); svc > last.Latency()-last.Late()+time.Millisecond {
		t.Errorf("service %v exceeds latency minus lateness", svc)
	}
}

// The attribution identity: layer self times plus the remainder measured
// around the job reconstruct the request, and sumError is how far that
// reconstruction lands from the untraced median.
func TestLayerSelfTimesPlusRemainderAddUp(t *testing.T) {
	layers := []layerTime{{"plan", 3 * time.Millisecond}, {"windows", 5 * time.Millisecond}}
	if got := sumLayers(layers); got != 8*time.Millisecond {
		t.Fatalf("sum of layers %v, want 8ms", got)
	}
	rem := 2 * time.Millisecond
	if got := sumError(layers, rem, 10*time.Millisecond); got != 0 {
		t.Errorf("layers + remainder equal to the median: error %v, want 0", got)
	}
	if got := sumError(layers, rem, 8*time.Millisecond); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("against an 8ms median: error %v, want 0.25", got)
	}
	if got := sumError(layers, rem, 0); got != 0 {
		t.Errorf("no median: error %v, want 0", got)
	}
}

func TestGoldenDigestStableAcrossRuns(t *testing.T) {
	g, err := loadGoldens("..")
	if err != nil {
		t.Fatal(err)
	}
	d := coldPool()[0]
	var digests []string
	for run := 0; run < 2; run++ {
		res, err := runInProcess([]jobDef{d})
		if err != nil {
			t.Fatal(err)
		}
		jr := serve.ResultJSON(res[0], true)
		// The HTTP path digests a decoded response: it must agree.
		data, err := json.Marshal(jr)
		if err != nil {
			t.Fatal(err)
		}
		var wire serve.JobResult
		if err := json.Unmarshal(data, &wire); err != nil {
			t.Fatal(err)
		}
		if digest(wire) != digest(jr) {
			t.Fatalf("run %d: digest changes across the JSON round trip", run)
		}
		digests = append(digests, digest(jr))
	}
	if digests[0] != digests[1] {
		t.Fatalf("digest differs between runs: %s vs %s", digests[0], digests[1])
	}
	if want := g.Jobs[d.Label]; digests[0] != want {
		t.Fatalf("%s digest %s, golden %s", d.Label, digests[0], want)
	}
}

func TestFigureTextStableAcrossRuns(t *testing.T) {
	var texts []string
	for run := 0; run < 2; run++ {
		sim.ConfigureDefault(sim.WithWorkers(sweepWorkers))
		var buf bytes.Buffer
		for _, a := range artifacts() {
			if a.name == "fig7d" {
				if err := a.run(&buf); err != nil {
					t.Fatal(err)
				}
			}
		}
		texts = append(texts, stripWall(buf.String()))
	}
	if texts[0] != texts[1] || texts[0] == "" {
		t.Fatalf("fig7d text differs between runs:\n%s\n---\n%s", texts[0], texts[1])
	}
	row := "rocket    towers     est   778105  windows  12  IDENTICAL  serial 1.2ms  par 700µs  1.71x"
	if got := stripWall(row); strings.Contains(got, "ms") || strings.Contains(got, "1.71x") {
		t.Errorf("wall columns survive stripping: %q", got)
	}
}

func TestHostMismatchIsFlagged(t *testing.T) {
	a := host{NProc: 2, GOMAXPROCS: 2, CPUModel: "x", GoVersion: "go1.24.0", Source: "s1", LoadAvg: "0.1"}
	b := a
	b.Source, b.LoadAvg = "s2", "3.0"
	if diff := hostMismatch(a, b); len(diff) != 0 {
		t.Errorf("source and load average must not make runs incomparable: %v", diff)
	}
	b.NProc = 8
	if diff := hostMismatch(a, b); len(diff) != 1 {
		t.Errorf("nproc mismatch not flagged: %v", diff)
	}
}
