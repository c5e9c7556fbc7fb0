package serve

import (
	"fmt"
	"strings"

	"icicle/internal/boom"
	"icicle/internal/kernel"
	"icicle/internal/rocket"
	"icicle/internal/sample"
	"icicle/internal/sim"
	"icicle/internal/store"
)

// JobSpec is the wire form of one simulation job: core + kernel by name,
// with optional size, config override, and sampling policy. The zero
// config means the paper's defaults (rocket.DefaultConfig /
// boom.NewConfig(size)).
type JobSpec struct {
	Core   string         `json:"core"`                    // "rocket" | "boom"
	Kernel string         `json:"kernel"`                  // registered kernel name
	Size   string         `json:"size,omitempty"`          // BOOM size ("small".."giga"); default "large"
	Rocket *rocket.Config `json:"rocket_config,omitempty"` // full config override
	Boom   *boom.Config   `json:"boom_config,omitempty"`   // full config override
	Sample *sample.Policy `json:"sample,omitempty"`        // enable sampled simulation
	// SamplePar > 0 selects the two-phase parallel sampled engine.
	// Requires Sample. The value is still accepted but sizes nothing:
	// the runner's free slots set the window workers (results are
	// bit-identical for any count).
	SamplePar int `json:"sample_par,omitempty"`
}

// Job resolves the spec into a runnable sim.Job.
func (s JobSpec) Job() (sim.Job, error) {
	k, err := kernel.ByName(s.Kernel)
	if err != nil {
		names := make([]string, 0, 16)
		for _, kn := range kernel.All() {
			names = append(names, kn.Name)
		}
		return sim.Job{}, fmt.Errorf("unknown kernel %q (have: %s)", s.Kernel, strings.Join(names, ", "))
	}
	var j sim.Job
	switch strings.ToLower(s.Core) {
	case "rocket", "":
		cfg := rocket.DefaultConfig()
		if s.Rocket != nil {
			cfg = *s.Rocket
		}
		if err := cfg.Validate(); err != nil {
			return sim.Job{}, err
		}
		j = sim.RocketJob(cfg, k)
	case "boom":
		size := boom.Large
		if s.Size != "" {
			size, err = boom.ParseSize(s.Size)
			if err != nil {
				return sim.Job{}, err
			}
		}
		cfg := boom.NewConfig(size)
		if s.Boom != nil {
			cfg = *s.Boom
		}
		if err := cfg.Validate(); err != nil {
			return sim.Job{}, err
		}
		j = sim.BoomJob(cfg, k)
	default:
		return sim.Job{}, fmt.Errorf("unknown core %q (want rocket or boom)", s.Core)
	}
	if s.SamplePar > 0 && (s.Sample == nil || !s.Sample.Enabled()) {
		return sim.Job{}, fmt.Errorf("sample_par requires an enabled sample policy")
	}
	if s.Sample != nil && s.Sample.Enabled() {
		if err := s.Sample.Validate(); err != nil {
			return sim.Job{}, err
		}
		if s.SamplePar > 0 {
			j = j.WithParallelSampling(*s.Sample, s.SamplePar)
		} else {
			j = j.WithSampling(*s.Sample)
		}
	}
	return j, nil
}

// SubmitRequest is the POST /jobs body: a batch of jobs under one client
// identity, priority class, and fairness weight.
type SubmitRequest struct {
	Client   string    `json:"client,omitempty"`   // fairness identity; default "anon"
	Priority int       `json:"priority,omitempty"` // strict class; higher runs first
	Weight   int       `json:"weight,omitempty"`   // fair share within the class; default 1
	Jobs     []JobSpec `json:"jobs"`
	// Wait makes the submission synchronous: the response is the full
	// StatusResponse (HTTP 200), written once every job in the batch has
	// completed, instead of the immediate SubmitResponse ack (202). The
	// batch still goes through the priority/fairness queue like any
	// other — the benchmark harness (perfbench) uses this so one request
	// equals one measured latency with no polling noise.
	Wait bool `json:"wait,omitempty"`
}

// SubmitResponse acknowledges a batch.
type SubmitResponse struct {
	ID        string `json:"id"`
	Jobs      int    `json:"jobs"`
	StatusURL string `json:"status_url"`
}

// TMATop is the top-level TMA split of a result.
type TMATop struct {
	Retiring float64 `json:"retiring"`
	BadSpec  float64 `json:"bad_spec"`
	Frontend float64 `json:"frontend"`
	Backend  float64 `json:"backend"`
}

// SampledSummary is the sampling report in API form.
type SampledSummary struct {
	EstCycles uint64  `json:"est_cycles"`
	CPI       float64 `json:"cpi"`
	CPILo     float64 `json:"cpi_ci_lo"`
	CPIHi     float64 `json:"cpi_ci_hi"`
	Windows   int     `json:"windows"`
	FFInsts   uint64  `json:"ff_insts"`
}

// JobResult is one job's outcome in API form. Tally maps render with
// sorted keys (encoding/json), so the rendering is deterministic: the
// same simulation produces byte-identical JSON wherever it ran — the
// end-to-end suite compares server output against the in-process runner
// this way.
type JobResult struct {
	Key       string            `json:"key"`                  // memo fingerprint
	StoreAddr string            `json:"store_addr,omitempty"` // blob address under /store/
	Done      bool              `json:"done"`
	Error     string            `json:"error,omitempty"`
	Cached    bool              `json:"cached"`
	FromStore bool              `json:"from_store"`
	Forwarded bool              `json:"forwarded,omitempty"` // ran on a shard peer
	Cycles    uint64            `json:"cycles,omitempty"`
	Insts     uint64            `json:"insts,omitempty"`
	IPC       float64           `json:"ipc,omitempty"`
	Exit      string            `json:"exit,omitempty"`
	Tally     map[string]uint64 `json:"tally,omitempty"`
	TMA       *TMATop           `json:"tma,omitempty"`
	Sampled   *SampledSummary   `json:"sampled,omitempty"`
}

// StatusResponse is the GET /jobs/{id} body.
type StatusResponse struct {
	ID         string      `json:"id"`
	Client     string      `json:"client"`
	Priority   int         `json:"priority"`
	State      string      `json:"state"` // queued | running | done
	Done       int         `json:"done"`
	Total      int         `json:"total"`
	ElapsedSec float64     `json:"elapsed_sec"`
	Results    []JobResult `json:"results"`
}

// ResultJSON renders a completed sim.Result in API form. withStore adds
// the content address a persistent store would serve the blob under.
// Exported (within the module) so the end-to-end tests can render the
// in-process runner's results identically.
func ResultJSON(res sim.Result, withStore bool) JobResult {
	jr := JobResult{
		Key:       res.Job.Key(),
		Done:      true,
		Cached:    res.Cached,
		FromStore: res.FromStore,
	}
	if withStore {
		jr.StoreAddr = store.Addr(sim.StoreKey(res.Job))
	}
	if res.Err != nil {
		jr.Error = res.Err.Error()
		return jr
	}
	jr.Cycles = res.Cycles()
	jr.Insts = res.Insts()
	if jr.Cycles > 0 {
		jr.IPC = float64(jr.Insts) / float64(jr.Cycles)
	}
	jr.Exit = fmt.Sprintf("%#x", res.Exit())
	if res.Job.Core == sim.Boom {
		jr.Tally = res.Boom.Tally
	} else {
		jr.Tally = res.Rocket.Tally
	}
	jr.TMA = &TMATop{
		Retiring: res.Breakdown.Retiring,
		BadSpec:  res.Breakdown.BadSpec,
		Frontend: res.Breakdown.Frontend,
		Backend:  res.Breakdown.Backend,
	}
	if res.Sampled != nil {
		jr.Sampled = &SampledSummary{
			EstCycles: res.Sampled.EstCycles,
			CPI:       res.Sampled.CPI,
			CPILo:     res.Sampled.CPICI.Lo,
			CPIHi:     res.Sampled.CPICI.Hi,
			Windows:   len(res.Sampled.Windows),
			FFInsts:   res.Sampled.FFInsts,
		}
	}
	return jr
}
