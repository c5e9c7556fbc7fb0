package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"icicle/internal/serve"
	"icicle/internal/sim"
	"icicle/internal/store"
)

// Serve-mix shape: a round is mixRate·mixRound arrivals, one cold job per
// cold kernel and the rest split evenly between warm jobs and blob
// reads. Cold jobs keep one core busy about 3% of the round, so the
// read tail stays clear of the reads that overlap a simulation.
const (
	mixRate  = 100.0 // arrivals per second, well below 2-core capacity
	mixRound = 9 * time.Second
)

// Request classes of serve-mix.
const (
	classWarm = iota // POST /jobs, priority 2, a seeded key
	classBlob        // GET /store/{addr} of a seeded blob
	classCold        // POST /jobs, priority 0, a never-requested config
)

var classNames = [...]string{"warm", "blob", "cold"}

type mixOp struct {
	class int
	def   jobDef
	at    time.Duration // intended send time, from round start
}

// mixSchedule draws one round: the class multiset is fixed; the order,
// each cold kernel's config, the warm/blob picks and the arrival times
// come from rng. Arrival times are sorted uniform draws over the round,
// which is a Poisson process conditioned on its arrival count.
func mixSchedule(rng *rand.Rand, seeds, cold []jobDef) []mixOp {
	n := int(mixRate * mixRound.Seconds())
	ops := make([]mixOp, 0, n)
	for k := range coldKernels {
		ops = append(ops, mixOp{class: classCold, def: cold[k*coldConfigs+rng.Intn(coldConfigs)]})
	}
	for k := 0; len(ops) < n; k++ {
		ops = append(ops, mixOp{class: classWarm + k%2, def: seeds[rng.Intn(len(seeds))]})
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	at := make([]float64, n)
	for i := range at {
		at[i] = rng.Float64() * mixRound.Seconds()
	}
	sort.Float64s(at)
	for i := range ops {
		ops[i].at = time.Duration(at[i] * float64(time.Second))
	}
	return ops
}

// openLoop sends each lane's requests in order over the lane's own
// connection: request i leaves at start+at[i], or when the lane's
// previous request returns if that is later. Its latency still counts
// from the intended time, so a stall is charged to every request it
// delays.
func openLoop(start time.Time, at []time.Duration, lanes [][]int, do func(i int) error) ([]latency, []error) {
	lat := make([]latency, len(at))
	errs := make([]error, len(at))
	var wg sync.WaitGroup
	for _, lane := range lanes {
		wg.Add(1)
		go func(lane []int) {
			defer wg.Done()
			for _, i := range lane {
				lat[i].Intended = start.Add(at[i])
				if wait := time.Until(lat[i].Intended); wait > 0 {
					time.Sleep(wait)
				}
				lat[i].Sent = time.Now()
				errs[i] = do(i)
				lat[i].Done = time.Now()
			}
		}(lane)
	}
	wg.Wait()
	return lat, errs
}

// seeded is serve-mix's pre-seeded store: where each seed job's blob
// lives and the exact bytes written there.
type seeded struct {
	dir     string
	addr    map[string]string // label → content address
	payload map[string][]byte // label → blob payload
}

// seedStore simulates the seed set into a fresh store directory.
func seedStore(dir string) (*seeded, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	defs := seedSet()
	jobs := make([]sim.Job, len(defs))
	for i, d := range defs {
		if jobs[i], err = d.job(); err != nil {
			return nil, err
		}
	}
	s := &seeded{dir: dir, addr: map[string]string{}, payload: map[string][]byte{}}
	for i, res := range sim.New(sim.WithWorkers(pinWorkers), sim.WithResultStore(st)).Run(jobs) {
		if res.Err != nil {
			return nil, fmt.Errorf("seed %s: %w", defs[i].Label, res.Err)
		}
		addr := store.Addr(sim.StoreKey(jobs[i]))
		payload, ok := st.GetAddr(addr)
		if !ok {
			return nil, fmt.Errorf("seed %s: blob missing after write", defs[i].Label)
		}
		s.addr[defs[i].Label], s.payload[defs[i].Label] = addr, payload
	}
	return s, nil
}

// copyDir copies the regular files under src into dst.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// serveMix runs fixed-rate open-loop rounds, each against a fresh server
// over a fresh copy of the seeded store.
func serveMix(e *env) (*outcome, error) {
	o := newOutcome()
	t0 := time.Now()
	seeds, err := seedStore(filepath.Join(e.work, "seed"))
	if err != nil {
		return nil, err
	}
	o.notes["seed_store_s"] = fmt.Sprintf("%.3f", time.Since(t0).Seconds())
	seedDefs, cold := seedSet(), coldPool()

	setups, err := setupSamples(e, func(dir string) error { return copyDir(seeds.dir, dir) })
	if err != nil {
		return nil, err
	}
	var walls, rss, rps []float64
	var all, late []float64
	var byClass [3][]float64
	var coldInsts, coldSec float64
	for i, rs := 0, e.rounds(); rs.next(); i++ {
		ops := mixSchedule(rand.New(rand.NewSource(e.seed*1000+int64(i))), seedDefs, cold)
		dir := filepath.Join(e.work, fmt.Sprintf("store-%d", i))
		if err := copyDir(seeds.dir, dir); err != nil {
			return nil, err
		}
		srv, err := startServer(e, dir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, srv.setup.Seconds())

		results := make([]serve.JobResult, len(ops))
		blobs := make([][]byte, len(ops))
		// Two connections, one per lane: cold jobs on one, reads on the
		// other, so a read never waits behind a cold job in the generator.
		at := make([]time.Duration, len(ops))
		var lanes [2][]int
		for k, op := range ops {
			at[k] = op.at
			if op.class == classCold {
				lanes[0] = append(lanes[0], k)
			} else {
				lanes[1] = append(lanes[1], k)
			}
		}
		start := time.Now()
		lats, errs := openLoop(start, at, lanes[:], func(k int) (err error) {
			switch op := ops[k]; op.class {
			case classBlob:
				blobs[k], err = srv.blob(seeds.addr[op.def.Label])
			case classWarm:
				results[k], err = srv.submit(op.def.Spec, 2)
			default:
				results[k], err = srv.submit(op.def.Spec, 0)
			}
			return err
		})
		var end time.Time
		for _, l := range lats {
			if l.Done.After(end) {
				end = l.Done
			}
		}
		wall := end.Sub(start)
		scraped, scrapeErr := srv.scrape()
		rss = append(rss, srv.stop())
		if scrapeErr != nil {
			return nil, scrapeErr
		}
		scrapeLayers(o.m, scraped)
		walls = append(walls, wall.Seconds())
		rps = append(rps, float64(len(ops))/wall.Seconds())

		for k, op := range ops {
			l := ms(lats[k].Latency())
			all = append(all, l)
			late = append(late, ms(lats[k].Late()))
			byClass[op.class] = append(byClass[op.class], l)
			if errs[k] != nil {
				o.check.fail("%s %s: %v", classNames[op.class], op.def.Label, errs[k])
				continue
			}
			switch op.class {
			case classBlob:
				checkBlob(&o.check, e.gold, seeds, op.def, blobs[k])
			case classCold:
				coldInsts += float64(results[k].Insts)
				coldSec += lats[k].Done.Sub(lats[k].Sent).Seconds()
				fallthrough
			default:
				o.check.job(e.gold, op.def.Label, results[k])
			}
		}
	}
	o.roundWalls(walls)
	o.m.set("setup_s", median(setups), "s")
	o.m.set("wall_s", median(walls), "s")
	o.m.set("minst_per_s", coldInsts/1e6/coldSec, "Minst/s")
	o.latencies("latency", all, 0.9)
	o.m.set("peak_rss_mb", median(rss), "MB")
	o.latencies("warm", byClass[classWarm], 0.99)
	o.latencies("blob", byClass[classBlob], 0.99)
	o.latencies("cold", byClass[classCold], 0.9)
	o.m.set("achieved_rps", median(rps), "1/s")
	_, p99 := tailQuantile(late, 0.99)
	o.m.set("load.gen_late_p99_ms", p99, "ms")
	return o, nil
}

// checkBlob verifies a fetched blob byte for byte against what seeding
// wrote, then decodes it and checks the result against the golden.
func checkBlob(c *checker, g *goldens, s *seeded, d jobDef, data []byte) {
	if !bytes.Equal(data, s.payload[d.Label]) {
		c.fail("blob %s: bytes differ from the seeded blob", d.Label)
		return
	}
	j, err := d.job()
	if err != nil {
		c.fail("blob %s: %v", d.Label, err)
		return
	}
	res, err := sim.DecodeResult(data, j)
	if err != nil {
		c.fail("blob %s: decode: %v", d.Label, err)
		return
	}
	c.job(g, d.Label, serve.ResultJSON(res, false))
}
