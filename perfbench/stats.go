package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported tail
// percentile; with fewer, the percentile is a statement about a handful
// of requests rather than about the distribution.
const minTail = 10

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
// xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankOf(len(s), q)]
}

// rankOf is the zero-based nearest rank of quantile q among n samples.
func rankOf(n int, q float64) int {
	r := int(math.Ceil(q*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return r
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile applies the tail rule: it reports the wanted percentile
// when at least minTail samples lie beyond its rank, and otherwise the
// highest percentile that has minTail samples beyond it (never below the
// median). It returns the percentile actually used with its value, so a
// report can say when the wanted tail was out of reach.
func tailQuantile(xs []float64, want float64) (q, v float64) {
	n := len(xs)
	q = want
	if n > 0 {
		if maxQ := float64(n-minTail) / float64(n); q > maxQ {
			q = maxQ
		}
	}
	if q < 0.5 {
		q = 0.5
	}
	return q, quantile(xs, q)
}

// bestOf keeps each operation's fastest time across a run's rounds. The
// same operation repeats every round, and its minimum sheds interference
// that only ever adds time: co-scheduled jobs and host CPU steal.
type bestOf map[string]float64

func (b bestOf) add(key string, v float64) {
	if old, ok := b[key]; !ok || v < old {
		b[key] = v
	}
}

func (b bestOf) values() []float64 {
	out := make([]float64, 0, len(b))
	for _, v := range b {
		out = append(out, v)
	}
	return out
}

// latency is one timed operation of an open or closed loop. Intended is
// when the schedule wanted it sent, Sent when a connection actually sent
// it, Done when its response was complete.
type latency struct {
	Intended, Sent, Done time.Time
}

// Latency is measured from the intended send time, so a stall that
// delays later sends is charged to the requests it delayed.
func (l latency) Latency() time.Duration { return l.Done.Sub(l.Intended) }

// Late is how far behind its schedule the generator sent the request.
func (l latency) Late() time.Duration {
	if d := l.Sent.Sub(l.Intended); d > 0 {
		return d
	}
	return 0
}

func sumLayers(layers []layerTime) time.Duration {
	var s time.Duration
	for _, l := range layers {
		s += l.Self
	}
	return s
}

// sumError is how far the reconstructed request (layer self times plus
// the separately measured remainder) lands from the untraced median, as
// a share of that median.
func sumError(layers []layerTime, rem, untraced time.Duration) float64 {
	if untraced <= 0 {
		return 0
	}
	return float64(sumLayers(layers)+rem-untraced) / float64(untraced)
}

// layerTime is one layer's self time within a traced request.
type layerTime struct {
	Name string
	Self time.Duration
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[rankOf(len(s), 0.5)]
}
