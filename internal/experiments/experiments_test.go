package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// The paper's claims on every artifact are asserted by TestPaperClaims;
// these tests cover the renderers and the result plumbing.

func TestCaseStudySpeedupAndRender(t *testing.T) {
	cs, err := Fig7dBranchInversion()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Base.Cycles == 0 || cs.Variant.Cycles == 0 {
		t.Fatal("empty rows")
	}
	if s := cs.Speedup(); s <= 0 {
		t.Fatalf("speedup %f", s)
	}
	var buf bytes.Buffer
	cs.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"brmiss", "brmiss_inv", "speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestGridFindAndRender(t *testing.T) {
	g, err := Fig7aRocketMicro()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Rows) < 8 {
		t.Fatalf("only %d rows", len(g.Rows))
	}
	if _, ok := g.Find("qsort"); !ok {
		t.Fatal("qsort missing")
	}
	if _, ok := g.Find("nope"); ok {
		t.Fatal("found nonexistent row")
	}
	var buf bytes.Buffer
	g.Fprint(&buf)
	g.FprintBackend(&buf)
	if !strings.Contains(buf.String(), "backend") {
		t.Fatal("backend render missing")
	}
	// Rows are sorted.
	for i := 1; i < len(g.Rows); i++ {
		if g.Rows[i-1].Name >= g.Rows[i].Name {
			t.Fatal("rows not sorted")
		}
	}
}

func TestUndercountConservation(t *testing.T) {
	u, err := UndercountBound("vvadd")
	if err != nil {
		t.Fatal(err)
	}
	if u.Read+u.Residue != u.Exact {
		t.Fatalf("conservation: %d + %d != %d", u.Read, u.Residue, u.Exact)
	}
	if u.Exact-u.Read > u.Bound {
		t.Fatalf("undercount %d beyond bound %d", u.Exact-u.Read, u.Bound)
	}
	var buf bytes.Buffer
	u.Fprint(&buf)
	if !strings.Contains(buf.String(), "undercount") {
		t.Fatal("render missing")
	}
}

func TestFig9NormalizedToScalar(t *testing.T) {
	r, err := Fig9Physical(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Reports) != 15 { // 5 sizes × 3 architectures
		t.Fatalf("%d reports", len(r.Reports))
	}
	for cfg, m := range r.DelayNorm {
		if m["scalar"] != 1.0 {
			t.Fatalf("%s: scalar normalization %f != 1", cfg, m["scalar"])
		}
	}
	var buf bytes.Buffer
	r.Fprint(&buf)
	if !strings.Contains(buf.String(), "Fig 9(b)") {
		t.Fatal("render missing 9(b)")
	}
}

func TestTable6PadSensitivity(t *testing.T) {
	// The ablation the paper's method implies: a wider window can only
	// grow the (conservative) overlap bound.
	narrow, err := Table6Overlap(5)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Table6Overlap(100)
	if err != nil {
		t.Fatal(err)
	}
	if wide.OverlapSlots < narrow.OverlapSlots {
		t.Fatalf("wider pad shrank the bound: %d < %d", wide.OverlapSlots, narrow.OverlapSlots)
	}
	if narrow.TotalSlots != wide.TotalSlots {
		t.Fatal("slot totals differ between pads")
	}
	var buf bytes.Buffer
	wide.Fprint(&buf)
	if !strings.Contains(buf.String(), "Table VI") {
		t.Fatal("render missing")
	}
}

func TestTable5RowOrdering(t *testing.T) {
	res, err := Table5PerLane()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(Table5Benchmarks) {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for i, r := range res.Rows {
		if r.Name != Table5Benchmarks[i] {
			t.Fatalf("row %d = %s, want %s", i, r.Name, Table5Benchmarks[i])
		}
		if len(r.UopsIssued) != 5 || len(r.FetchBubble) != 3 {
			t.Fatalf("%s: lane widths %d/%d", r.Name, len(r.UopsIssued), len(r.FetchBubble))
		}
	}
	var buf bytes.Buffer
	res.Fprint(&buf)
	if !strings.Contains(buf.String(), "Table V") {
		t.Fatal("render missing")
	}
}

func TestArchComparisonRender(t *testing.T) {
	c, err := CounterArchComparison("vvadd", "uops-retired")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	c.Fprint(&buf)
	if !strings.Contains(buf.String(), "scalar") {
		t.Fatal("render missing")
	}
}
