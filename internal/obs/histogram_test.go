package obs

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// exactQuantile is the reference: the ceil-rank order statistic of the
// sorted observations, matching the histogram's rank convention.
func exactQuantile(sorted []uint64, q float64) uint64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// relErr is |got-want|/want (0 when both are 0).
func relErr(got, want uint64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d := float64(got) - float64(want)
	return math.Abs(d) / float64(want)
}

// hdrTol is the histogram's guaranteed relative resolution plus
// headroom for the reference landing at a bucket edge.
const hdrTol = 1.0/hdrSubCount + 1e-9

var goldenQs = []float64{0.5, 0.9, 0.95, 0.99, 0.999, 1}

func checkGolden(t *testing.T, name string, values []uint64) {
	t.Helper()
	h := NewHistogram(1e-9)
	for _, v := range values {
		h.Observe(v)
	}
	sorted := append([]uint64(nil), values...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	s := h.Snapshot()
	if s.Count != uint64(len(values)) {
		t.Fatalf("%s: count = %d, want %d", name, s.Count, len(values))
	}
	if s.Max != sorted[len(sorted)-1] {
		t.Fatalf("%s: max = %d, want %d (exact)", name, s.Max, sorted[len(sorted)-1])
	}
	for _, q := range goldenQs {
		got, want := s.Quantile(q), exactQuantile(sorted, q)
		if got < want {
			t.Errorf("%s: p%g = %d underestimates exact %d (quantiles must be upper bucket edges)",
				name, 100*q, got, want)
		}
		if e := relErr(got, want); e > hdrTol {
			t.Errorf("%s: p%g = %d, exact %d, rel err %.4f > %.4f", name, 100*q, got, want, e, hdrTol)
		}
	}
	if s.Quantile(1) != s.Max {
		t.Errorf("%s: p100 = %d != max %d", name, s.Quantile(1), s.Max)
	}
}

// Golden distributions: the quantile extraction must track the exact
// order statistics within the sub-bucket resolution.
func TestHistogramGoldenUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	values := make([]uint64, 20000)
	for i := range values {
		values[i] = uint64(rng.Int63n(1_000_000)) + 1 // uniform [1, 1e6]
	}
	checkGolden(t, "uniform", values)
}

func TestHistogramGoldenExponential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	values := make([]uint64, 20000)
	for i := range values {
		// mean 1ms in nanoseconds: a plausible latency distribution with
		// a long tail, the shape the load generator actually records.
		values[i] = uint64(rng.ExpFloat64()*1e6) + 1
	}
	checkGolden(t, "exponential", values)
}

func TestHistogramGoldenPointMass(t *testing.T) {
	values := make([]uint64, 1000)
	for i := range values {
		values[i] = 123_456
	}
	checkGolden(t, "point-mass", values)
	// Point mass is exact at every quantile: the max clamp pins the
	// bucket edge back to the single observed value.
	h := NewHistogram(1)
	for _, v := range values {
		h.Observe(v)
	}
	for _, q := range goldenQs {
		if got := h.Quantile(q); got != 123_456 {
			t.Fatalf("point mass p%g = %d, want exactly 123456", 100*q, got)
		}
	}
}

func TestHistogramGoldenSmallExact(t *testing.T) {
	// Values below hdrSubCount land in exact unit buckets: quantiles of
	// small sets are exact, not just within tolerance.
	h := NewHistogram(1)
	for _, v := range []uint64{0, 1, 2, 3, 4, 5, 6} {
		h.Observe(v)
	}
	if got := h.Quantile(0.5); got != 3 {
		t.Fatalf("p50 of 0..6 = %d, want 3", got)
	}
	if got := h.Quantile(0); got != 0 {
		t.Fatalf("p0 = %d, want 0", got)
	}
}

// Property: under arbitrary observation streams the quantiles are
// monotone (p50 ≤ p90 ≤ p99 ≤ max) and the max is exact.
func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(2000)
		h := NewHistogram(1e-9)
		var trueMax uint64
		for i := 0; i < n; i++ {
			var v uint64
			switch rng.Intn(4) {
			case 0:
				v = uint64(rng.Intn(hdrSubCount)) // exact range
			case 1:
				v = uint64(rng.Int63n(1e3))
			case 2:
				v = uint64(rng.Int63n(1e9))
			default:
				v = rng.Uint64() >> uint(rng.Intn(64)) // full range
			}
			h.Observe(v)
			if v > trueMax {
				trueMax = v
			}
		}
		s := h.Snapshot()
		p50, p90, p99, p100 := s.Quantile(0.5), s.Quantile(0.9), s.Quantile(0.99), s.Quantile(1)
		if p50 > p90 || p90 > p99 || p99 > p100 {
			t.Fatalf("trial %d: quantiles not monotone: p50=%d p90=%d p99=%d p100=%d",
				trial, p50, p90, p99, p100)
		}
		if p100 != trueMax || s.Max != trueMax {
			t.Fatalf("trial %d: max %d (p100 %d), want exact %d", trial, s.Max, p100, trueMax)
		}
	}
}

// Bucket mapping invariants: indices are contiguous, order-preserving,
// and every bucket's upper edge maps back into the bucket.
func TestHistogramBucketMapping(t *testing.T) {
	if got := bucketIndex(0); got != 0 {
		t.Fatalf("bucketIndex(0) = %d", got)
	}
	if got := bucketIndex(math.MaxUint64); got != hdrBuckets-1 {
		t.Fatalf("bucketIndex(MaxUint64) = %d, want %d", got, hdrBuckets-1)
	}
	for i := 0; i < hdrBuckets; i++ {
		u := bucketUpper(i)
		if bucketIndex(u) != i {
			t.Fatalf("bucketUpper(%d) = %d maps back to %d", i, u, bucketIndex(u))
		}
		if u < math.MaxUint64 && bucketIndex(u+1) != i+1 {
			t.Fatalf("edge %d+1 maps to %d, want %d", u, bucketIndex(u+1), i+1)
		}
	}
	// Spot-check order preservation across a sweep of magnitudes.
	prev := -1
	for v := uint64(1); v != 0 && v < 1<<62; v = v*3 + 1 {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucketIndex not monotone at %d", v)
		}
		prev = idx
	}
}

// Labeled histogram series must expose spliced labels with cumulative
// le buckets and consistent _sum/_count, grouped under one TYPE header.
func TestPrometheusLabeledHistogram(t *testing.T) {
	reg := NewRegistry()
	agg := reg.Histogram("icicle_wait_seconds", "wait", 1e-9)
	c0 := reg.Histogram(LabeledName("icicle_wait_seconds", "class", "0"), "wait", 1e-9)
	for i := 0; i < 10; i++ {
		agg.Observe(1000)
		c0.Observe(1000)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Count(out, "# TYPE icicle_wait_seconds histogram") != 1 {
		t.Fatalf("TYPE header not emitted exactly once:\n%s", out)
	}
	for _, want := range []string{
		`icicle_wait_seconds_bucket{le="+Inf"} 10`,
		`icicle_wait_seconds_bucket{class="0",le="+Inf"} 10`,
		`icicle_wait_seconds_count{class="0"} 10`,
		`icicle_wait_seconds_sum{class="0"}`,
		"icicle_wait_seconds_count 10",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// The scrape client round-trips it: quantiles survive render+parse.
	sc, err := ParsePrometheus(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	h := sc.Hist(`icicle_wait_seconds{class="0"}`)
	if h == nil {
		t.Fatalf("scrape lost the labeled series; have %v", sc.Hists)
	}
	if h.Count != 10 {
		t.Fatalf("scraped count = %v", h.Count)
	}
	q := h.Quantile(0.5)
	if q < 900e-9 || q > 1100e-9 {
		t.Fatalf("scraped p50 = %g s, want ≈1µs", q)
	}
}

// Scrape deltas: two captures of a moving registry isolate the window.
func TestScrapeDelta(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("icicle_jobs_total", "jobs")
	h := reg.Histogram("icicle_lat_seconds", "lat", 1e-9)
	c.Add(5)
	h.Observe(500)
	scrape := func() *Scraped {
		t.Helper()
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		s, err := ParsePrometheus(strings.NewReader(b.String()))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1 := scrape()
	c.Add(7)
	h.Observe(2000)
	h.Observe(2000)
	d := scrape().Delta(s1)
	if got := d.Value("icicle_jobs_total"); got != 7 {
		t.Fatalf("counter delta = %g, want 7", got)
	}
	dh := d.Hist("icicle_lat_seconds")
	if dh == nil || dh.Count != 2 {
		t.Fatalf("hist delta count = %+v, want 2", dh)
	}
	q := dh.Quantile(0.5)
	if q < 1800e-9 || q > 2200e-9 {
		t.Fatalf("delta p50 = %g s, want ≈2µs", q)
	}
}
