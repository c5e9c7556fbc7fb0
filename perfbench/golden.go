package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"icicle/internal/serve"
	"icicle/internal/sim"
)

// Golden files live next to the benchmark so a model change that moves
// any simulated number shows up as a failed operation, not as a silent
// speed-up. Re-pin them with `run.sh repin` (and `run.sh refs` for the
// full-detail references) only for intended model changes.
const (
	goldenDir   = "perfbench/golden"
	jobsFile    = "jobs.json"
	refsFile    = "refs.json"
	figureFile  = "figure.txt"
	pinWorkers  = 2
	floatDigits = -1 // shortest representation that round-trips
)

// digest fingerprints a job's simulated outcome: cycles, instructions,
// exit checksum, the sorted event tally, and the top-level TMA shares.
// It is computed from the API form, so an HTTP response and an
// in-process result of the same job digest identically.
func digest(jr serve.JobResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d insts=%d exit=%s", jr.Cycles, jr.Insts, jr.Exit)
	keys := make([]string, 0, len(jr.Tally))
	for k := range jr.Tally {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%d", k, jr.Tally[k])
	}
	if t := jr.TMA; t != nil {
		fmt.Fprintf(&b, " tma=%s/%s/%s/%s", fmtFloat(t.Retiring), fmtFloat(t.BadSpec),
			fmtFloat(t.Frontend), fmtFloat(t.Backend))
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}

func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', floatDigits, 64) }

// resultDigest digests an in-process result through the API rendering.
func resultDigest(res sim.Result) string { return digest(serve.ResultJSON(res, false)) }

// tmaError is the largest top-level TMA share difference, in percentage
// points.
func tmaError(got, ref serve.TMATop) float64 {
	return 100 * math.Max(
		math.Max(math.Abs(got.Retiring-ref.Retiring), math.Abs(got.BadSpec-ref.BadSpec)),
		math.Max(math.Abs(got.Frontend-ref.Frontend), math.Abs(got.Backend-ref.Backend)))
}

// goldens is the checked-in expectation set.
type goldens struct {
	Jobs   map[string]string       // job label → digest
	Refs   map[string]serve.TMATop // core|kernel → full-detail top-level TMA
	Figure string                  // figure-sweep text, wall columns stripped
}

func loadGoldens(root string) (*goldens, error) {
	dir := filepath.Join(root, goldenDir)
	g := &goldens{}
	if err := readJSON(filepath.Join(dir, jobsFile), &g.Jobs); err != nil {
		return nil, err
	}
	if err := readJSON(filepath.Join(dir, refsFile), &g.Refs); err != nil {
		return nil, err
	}
	fig, err := os.ReadFile(filepath.Join(dir, figureFile))
	if err != nil {
		return nil, fmt.Errorf("golden figure text: %w", err)
	}
	g.Figure = string(fig)
	return g, nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runInProcess simulates defs on a fresh runner and returns each result
// in order, failing on the first job error.
func runInProcess(defs []jobDef) ([]sim.Result, error) {
	jobs := make([]sim.Job, len(defs))
	for i, d := range defs {
		j, err := d.job()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.Label, err)
		}
		jobs[i] = j
	}
	res := sim.New(sim.WithWorkers(pinWorkers)).Run(jobs)
	for i, r := range res {
		if r.Err != nil {
			return nil, fmt.Errorf("%s: %w", defs[i].Label, r.Err)
		}
	}
	return res, nil
}

// repin regenerates the job digests and the figure text from the
// current model. Run it only when a change is meant to move simulated
// results, and review the diff of perfbench/golden before committing.
func repin(root string) error {
	defs := allGoldenJobs()
	res, err := runInProcess(defs)
	if err != nil {
		return err
	}
	jobs := make(map[string]string, len(defs))
	for i, d := range defs {
		jobs[d.Label] = resultDigest(res[i])
	}
	dir := filepath.Join(root, goldenDir)
	if err := writeJSON(filepath.Join(dir, jobsFile), jobs); err != nil {
		return err
	}
	text, st := runFigureArtifacts()
	for name, msg := range st.ArtifactErrs {
		return fmt.Errorf("figure %s: %s", name, msg)
	}
	if err := os.WriteFile(filepath.Join(dir, figureFile), []byte(stripWall(text)), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: pinned %d job digests and the figure text under %s\n", len(jobs), dir)
	return nil
}

// pinRefs regenerates the full-detail references the sampled-sweep
// error is measured against. It simulates every long kernel in full
// detail, which no benchmark run ever does.
func pinRefs(root string) error {
	defs := refPairs()
	res, err := runInProcess(defs)
	if err != nil {
		return err
	}
	refs := make(map[string]serve.TMATop, len(defs))
	for i, d := range defs {
		refs[d.Label] = *serve.ResultJSON(res[i], false).TMA
	}
	path := filepath.Join(root, goldenDir, refsFile)
	if err := writeJSON(path, refs); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: pinned %d full-detail references in %s\n", len(refs), path)
	return nil
}

// checker counts operations and golden mismatches for one run.
type checker struct {
	attempted, failed int
	failures          []string
}

// maxFailureNotes bounds how many failure descriptions a record keeps.
const maxFailureNotes = 20

func (c *checker) ok() { c.attempted++ }

func (c *checker) fail(format string, args ...any) {
	c.attempted++
	c.failed++
	c.note(fmt.Sprintf(format, args...))
}

func (c *checker) note(s string) {
	if len(c.failures) < maxFailureNotes {
		c.failures = append(c.failures, s)
	}
}

// job checks one job result against its golden digest.
func (c *checker) job(g *goldens, label string, jr serve.JobResult) {
	switch want, ok := g.Jobs[label]; {
	case jr.Error != "":
		c.fail("%s: job error: %s", label, jr.Error)
	case !ok:
		c.fail("%s: no golden digest (run repin)", label)
	case digest(jr) != want:
		c.fail("%s: digest %s, golden %s", label, digest(jr), want)
	default:
		c.ok()
	}
}
