package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestSampledVsFull(t *testing.T) {
	sc, err := SampledVsFull()
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Rows) != 6 {
		t.Fatalf("got %d rows, want 6 (3 kernels x 2 cores)", len(sc.Rows))
	}
	var buf bytes.Buffer
	sc.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"Sampled vs full-detail", "towers", "mm", "bfs", "windows"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}
