package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// The histogram is HDR-style log-linear: every power-of-two range is
// split into hdrSubCount equal sub-buckets, so the relative error of any
// reconstructed value is bounded by 1/hdrSubCount (3.125% at 32
// sub-buckets) across the full uint64 range, while Observe stays a
// handful of branch-free integer ops on atomics. Values below
// hdrSubCount land in exact unit buckets. This is the same layout
// HdrHistogram and wrk2 use to report latency quantiles.
const (
	hdrSubBits  = 5
	hdrSubCount = 1 << hdrSubBits // sub-buckets per power of two
	// hdrBuckets: hdrSubCount exact unit buckets, then hdrSubCount
	// sub-buckets for each major power 2^m, m in [hdrSubBits, 63].
	hdrBuckets = hdrSubCount + (64-hdrSubBits)*hdrSubCount
)

// bucketIndex maps a value to its bucket. Indices are contiguous and
// order-preserving: v <= w implies bucketIndex(v) <= bucketIndex(w).
func bucketIndex(v uint64) int {
	if v < hdrSubCount {
		return int(v)
	}
	m := bits.Len64(v) - 1 // hdrSubBits..63
	shift := uint(m - hdrSubBits)
	// v>>shift is in [hdrSubCount, 2*hdrSubCount), so indices run
	// contiguously from hdrSubCount upward.
	return (m-hdrSubBits)*hdrSubCount + int(v>>shift)
}

// bucketUpper returns the largest value mapping to bucket i (the
// inclusive upper edge used for quantile reconstruction).
func bucketUpper(i int) uint64 {
	if i < hdrSubCount {
		return uint64(i)
	}
	m := i/hdrSubCount + hdrSubBits - 1 // hdrSubBits..63 by construction
	s := uint64(i%hdrSubCount) + hdrSubCount
	hi := (s + 1) << uint(m-hdrSubBits)
	if hi == 0 { // 2^64: the top sub-bucket's edge overflows
		return math.MaxUint64
	}
	return hi - 1
}

// Histogram is a log-linear (HDR-style) distribution of uint64
// observations, typically nanoseconds. The hot path (Observe) is
// lock-free and allocation-free: a count, a sum, a CAS-maintained exact
// maximum, and one atomic bucket increment. The zero value is usable but
// renders raw values; construct with NewHistogram to set the exposition
// scale. A nil *Histogram discards observations.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
	buckets [hdrBuckets]atomic.Uint64
	scale   float64 // multiplier applied at exposition (1e-9: ns → s)
}

// NewHistogram returns a standalone histogram whose Prometheus exposition
// multiplies bucket bounds and the sum by scale (pass 1e-9 to observe
// nanoseconds and expose seconds; 0 means 1).
func NewHistogram(scale float64) *Histogram { return &Histogram{scale: scale} }

// Observe records one value. Nil-safe, lock-free, alloc-free.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketIndex(v)].Add(1)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the raw (unscaled) observation total.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Max returns the exact largest observed value (0 with no observations).
func (h *Histogram) Max() uint64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Scale returns the exposition scale (1 when unset).
func (h *Histogram) Scale() float64 {
	if h == nil {
		return 1
	}
	return h.effScale()
}

func (h *Histogram) effScale() float64 {
	if h.scale == 0 {
		return 1
	}
	return h.scale
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the raw observed
// values, exact to the sub-bucket resolution (≤1/32 relative error) and
// clamped to the exact observed maximum. Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) uint64 {
	if h == nil {
		return 0
	}
	s := h.Snapshot()
	return s.Quantile(q)
}

// Snapshot captures a point-in-time copy of the distribution for
// quantile work off the hot path. Nil-safe (returns an empty
// snapshot).
func (h *Histogram) Snapshot() *HistogramSnapshot {
	s := &HistogramSnapshot{}
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	s.Scale = h.effScale()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is an immutable copy of a Histogram's state.
type HistogramSnapshot struct {
	Count   uint64
	Sum     uint64
	Max     uint64 // largest value observed up to the snapshot
	Scale   float64
	Buckets [hdrBuckets]uint64
}

// Quantile returns the q-quantile of the snapshot, exact to the
// sub-bucket resolution and clamped to the recorded maximum (so a
// point-mass distribution reports its exact value, and Quantile(1) ==
// Max for any stream that contains its own maximum).
func (s *HistogramSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i := range s.Buckets {
		cum += s.Buckets[i]
		if cum >= rank {
			v := bucketUpper(i)
			if s.Max > 0 && v > s.Max {
				return s.Max
			}
			return v
		}
	}
	return s.Max
}
