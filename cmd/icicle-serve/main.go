// Command icicle-serve runs the simulation sweep service: an HTTP/JSON
// API over the shared runner with a persistent content-addressed result
// store, priority/fairness queueing, and optional sharding across peers.
//
// Usage:
//
//	icicle-serve -addr :8080 -store /var/lib/icicle
//	icicle-serve -addr :8081 -store /var/lib/icicle \
//	    -self http://host-b:8081 -peers http://host-a:8080,http://host-b:8081
//
// Submit a sweep and poll it:
//
//	curl -s localhost:8080/jobs -d '{"client":"me","jobs":[{"core":"rocket","kernel":"vvadd"}]}'
//	curl -s localhost:8080/jobs/b-000001
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"icicle/internal/obs"
	"icicle/internal/serve"
	"icicle/internal/sim"
	"icicle/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "icicle-serve:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	addr := flag.String("addr", ":8080", "API listen address")
	storeDir := flag.String("store", "", "persistent result store directory (empty = in-memory only)")
	storeMax := flag.Int64("store-max-bytes", 0, "store size cap in bytes (0 = unbounded); least-recently-used blobs are evicted")
	workers := flag.Int("workers", 0, "concurrent job executors (0 = GOMAXPROCS)")
	jobs := flag.Int("j", 0, "simulation slots: jobs simulating at once, plus the cores a sampled job's windows may borrow while free; sample_par sizes nothing (0 = GOMAXPROCS)")
	self := flag.String("self", "", "this server's advertised base URL on the shard ring, e.g. http://host-a:8080")
	peers := flag.String("peers", "", "comma-separated shard peer base URLs, this node's -self included (config sweeps hash across them)")
	var o obs.CLI
	o.AddFlags(flag.CommandLine)
	flag.Parse()

	reg := obs.Default()
	if o.SpanOut != "" {
		// Enable tracing before the server (and its runner) is built so
		// both pick the tracer up; CLI.Start's own call is idempotent.
		obs.EnableTracing()
	}

	var st *store.Store
	if *storeDir != "" {
		var opts []store.Option
		if *storeMax > 0 {
			opts = append(opts, store.WithMaxBytes(*storeMax))
		}
		opts = append(opts, store.WithMetrics(reg))
		st, err = store.Open(*storeDir, opts...)
		if err != nil {
			return fmt.Errorf("open store: %w", err)
		}
		stats := st.Stats()
		fmt.Fprintf(os.Stderr, "icicle-serve: store %s: %d objects, %d bytes\n",
			st.Dir(), stats.Objects, stats.Bytes)
	}

	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, strings.TrimRight(p, "/"))
		}
	}

	var runnerOpts []sim.Option
	if *jobs > 0 {
		runnerOpts = append(runnerOpts, sim.WithWorkers(*jobs))
	}
	srv, err := serve.New(serve.Config{
		Store:        st,
		Registry:     reg,
		Tracer:       obs.Tracing(),
		QueueWorkers: *workers,
		Self:         strings.TrimRight(*self, "/"),
		Peers:        peerList,
		RunnerOpts:   runnerOpts,
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	o.ProgressSource = srv.Progress
	if err := o.Start("icicle-serve"); err != nil {
		return err
	}
	defer func() {
		if serr := o.Stop(); serr != nil && err == nil {
			err = serr
		}
	}()

	bound, err := srv.Start(*addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	storeDesc := "memory-only"
	if st != nil {
		storeDesc = st.Dir()
	}
	fmt.Fprintf(os.Stderr,
		"icicle-serve: listening on http://%s | store %s | %d peers | %d queue workers (strict priority + weighted fair within class)\n",
		bound, storeDesc, len(peerList), srv.Workers())
	fmt.Fprintf(os.Stderr, "icicle-serve: serving on http://%s (POST /jobs, GET /jobs/{id}, /store/{addr}, /healthz, /metrics)\n", bound)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Fprintf(os.Stderr, "icicle-serve: %s, shutting down\n", s)
	return srv.Close()
}
