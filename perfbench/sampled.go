package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"icicle/internal/obs"
	"icicle/internal/serve"
)

// reply is one request's outcome.
type reply struct {
	jr  serve.JobResult
	err error
	d   time.Duration
}

// sampledSweep sends the whole cold sampled grid, in a seeded order, to a
// fresh server per round, over one connection: each request is sent as
// the previous one returns. With two connections both cores stay
// saturated, and on a host that throttles sustained load the round time
// drifted up about 50% over ten consecutive runs, against about 15% over
// six with one.
func sampledSweep(e *env) (*outcome, error) {
	o := newOutcome()
	grid := sampledGrid()
	var walls, rss, minst []float64
	lat := bestOf{}
	var errPP float64
	var last *obs.Scraped
	var lastInsts float64
	setups, err := setupSamples(e, func(string) error { return nil })
	if err != nil {
		return nil, err
	}
	for i, rs := 0, e.rounds(); rs.next(); i++ {
		srv, err := startServer(e, filepath.Join(e.work, fmt.Sprintf("store-%d", i)))
		if err != nil {
			return nil, err
		}
		order := rand.New(rand.NewSource(e.seed*1000 + int64(i))).Perm(len(grid))
		start := time.Now()
		replies := make([]reply, len(grid))
		for k, g := range order {
			t0 := time.Now()
			jr, err := srv.submit(grid[g].Spec, 0)
			replies[k] = reply{jr, err, time.Since(t0)}
		}
		wall := time.Since(start)
		scraped, scrapeErr := srv.scrape()
		rss = append(rss, srv.stop())
		if scrapeErr != nil {
			return nil, scrapeErr
		}
		var insts float64
		for k, r := range replies {
			d := grid[order[k]]
			lat.add(d.Label, ms(r.d))
			if r.err != nil {
				o.check.fail("%s: %v", d.Label, r.err)
				continue
			}
			o.check.job(e.gold, d.Label, r.jr)
			insts += float64(r.jr.Insts)
			ref, ok := e.gold.Refs[refLabel(d)]
			if !ok || r.jr.TMA == nil {
				o.check.fail("%s: no full-detail reference or TMA (run refs)", d.Label)
				continue
			}
			if pp := tmaError(*r.jr.TMA, ref); pp > errPP {
				errPP = pp
				o.notes["sampled_err_worst"] = d.Label
			}
		}
		setups = append(setups, srv.setup.Seconds())
		walls = append(walls, wall.Seconds())
		minst = append(minst, insts/1e6/wall.Seconds())
		last, lastInsts = scraped, insts
	}
	o.roundWalls(walls)
	o.m.set("setup_s", median(setups), "s")
	o.m.set("wall_s", median(walls), "s")
	o.m.set("minst_per_s", median(minst), "Minst/s")
	o.latencies("latency", lat.values(), 0.9)
	o.m.set("peak_rss_mb", median(rss), "MB")
	o.m.set("sampled_err_pp", errPP, "pp")

	scrapeLayers(o.m, last)
	if lastInsts > 0 {
		// A plan build runs the whole program functionally once, so the
		// fast-forwarded instructions over the covered ones are the share
		// of requests that had to build their plan.
		o.m.set("perf.plan_hit_ratio", 1-last.Value("icicle_sample_fastforward_insts_total")/lastInsts, "frac")
		o.m.set("sample.detail_frac", last.Value("icicle_sample_detailed_insts_total")/lastInsts, "frac")
	}
	return o, nil
}
