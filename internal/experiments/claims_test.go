package experiments

import (
	"bytes"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// raceSkipped are the artifacts the race-detector run leaves out of the
// gate: the two LargeBOOM grids take about half of its time under -race.
// The plain tier-1 run asserts every claim.
var raceSkipped = []string{"fig7g", "fig7k"}

func gated(artifact string) bool { return !raceDetector || !slices.Contains(raceSkipped, artifact) }

// claimOutcomes evaluates the gated claims once per test binary: the gate
// and the EXPERIMENTS.md rendering check read the same values.
var claimOutcomes = sync.OnceValue(func() []Outcome {
	return RunClaims(slices.DeleteFunc(slices.Clone(Claims), func(c Claim) bool { return !gated(c.Artifact()) }))
})

// TestPaperClaims is the tier-1 gate on the paper's evaluation: every
// registry claim must hold on the current simulator.
func TestPaperClaims(t *testing.T) {
	start := time.Now()
	outs := claimOutcomes()
	t.Logf("%d claims evaluated in %v", len(outs), time.Since(start).Round(time.Millisecond))
	for _, o := range outs {
		t.Run(o.ID, func(t *testing.T) {
			if err := o.Check(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestClaimTablesMatchExperiments pins the committed EXPERIMENTS.md claim
// tables to the registry's rendering.
func TestClaimTablesMatchExperiments(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	FprintClaims(&want, claimOutcomes())
	if got := claimBlocks(string(doc)); got != want.String() {
		gl, wl := strings.Split(got, "\n"), strings.Split(want.String(), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			if i >= len(gl) || i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("EXPERIMENTS.md claim tables differ from the registry at generated line %d:\n got: %q\nwant: %q\n"+
					"regenerate with: go run ./cmd/icicle-bench -only claims", i+1, at(gl, i), at(wl, i))
			}
		}
	}
}

// claimBlocks returns the marked claim tables of the gated artifacts in
// doc, each followed by a blank line, in the shape FprintClaims writes.
func claimBlocks(doc string) string {
	var b strings.Builder
	in := false
	for _, line := range strings.Split(doc, "\n") {
		if rest, ok := strings.CutPrefix(line, "<!-- begin claims "); ok {
			in = gated(strings.TrimSuffix(strings.Fields(rest)[0], ":"))
		}
		if in {
			b.WriteString(line + "\n")
		}
		if in && strings.HasPrefix(line, "<!-- end claims ") {
			in = false
			b.WriteString("\n")
		}
	}
	return b.String()
}

func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end>"
}
