package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The scrape client is the read side of the registry's Prometheus text
// exposition: the benchmark harness (perfbench) scrapes an icicle-serve
// /metrics endpoint before and after a run and diffs the two captures,
// so its report can put client-observed latency next to the server's
// own queue-wait histograms and store/memo hit counters. It parses the
// subset of the text format the registry emits (and any other exporter's
// counters/gauges/histograms with simple label sets).

// ScrapedBucket is one cumulative histogram bucket: observations ≤ LE
// (in the exposition's scaled units, typically seconds).
type ScrapedBucket struct {
	LE  float64 // inclusive upper bound; math.Inf(1) for +Inf
	Cum float64 // cumulative count
}

// ScrapedHistogram is one histogram series reassembled from its
// _bucket/_sum/_count lines.
type ScrapedHistogram struct {
	Buckets []ScrapedBucket // ascending LE, +Inf last
	Sum     float64
	Count   float64
}

// Quantile reconstructs the q-quantile from the cumulative buckets the
// way Prometheus' histogram_quantile does: the upper edge of the bucket
// the rank falls into (so resolution is whatever the exposition carried
// — the registry emits every non-empty sub-bucket edge, ≤3.125%
// relative error). Returns 0 with no observations.
func (h *ScrapedHistogram) Quantile(q float64) float64 {
	if h == nil || h.Count <= 0 || len(h.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := math.Ceil(q * h.Count)
	if rank < 1 {
		rank = 1
	}
	for _, b := range h.Buckets {
		if b.Cum >= rank {
			if math.IsInf(b.LE, 1) {
				// Only the +Inf bucket covers the rank: report the last
				// finite edge (everything beyond it is unbounded).
				for i := len(h.Buckets) - 1; i >= 0; i-- {
					if !math.IsInf(h.Buckets[i].LE, 1) {
						return h.Buckets[i].LE
					}
				}
				return 0
			}
			return b.LE
		}
	}
	return h.Buckets[len(h.Buckets)-1].LE
}

// Delta returns h minus prev (per-LE cumulative counts, sum, count),
// isolating one measurement window of a live histogram. Buckets present
// only in prev are ignored; buckets new in h keep their full counts.
// prev may be nil.
func (h *ScrapedHistogram) Delta(prev *ScrapedHistogram) *ScrapedHistogram {
	out := &ScrapedHistogram{Sum: h.Sum, Count: h.Count}
	out.Buckets = append([]ScrapedBucket(nil), h.Buckets...)
	if prev == nil {
		return out
	}
	out.Sum -= prev.Sum
	out.Count -= prev.Count
	pv := map[float64]float64{}
	for _, b := range prev.Buckets {
		pv[b.LE] = b.Cum
	}
	for i := range out.Buckets {
		out.Buckets[i].Cum -= pv[out.Buckets[i].LE]
	}
	return out
}

// Scraped is one parsed /metrics capture.
type Scraped struct {
	// Values holds every plain sample (counters, gauges) keyed by the
	// full series name including its label body, exactly as exposed.
	Values map[string]float64
	// Hists holds reassembled histograms keyed by the series name with
	// the le label stripped (base name plus any other labels).
	Hists map[string]*ScrapedHistogram
}

// Value returns a plain sample (0 when absent).
func (s *Scraped) Value(name string) float64 {
	if s == nil {
		return 0
	}
	return s.Values[name]
}

// Hist returns a histogram series (nil when absent).
func (s *Scraped) Hist(name string) *ScrapedHistogram {
	if s == nil {
		return nil
	}
	return s.Hists[name]
}

// Delta returns s minus prev for every plain value and histogram —
// counters become per-window increments; gauges become (mostly
// meaningless) differences, so read gauges from s directly when you need
// levels. prev may be nil.
func (s *Scraped) Delta(prev *Scraped) *Scraped {
	out := &Scraped{Values: map[string]float64{}, Hists: map[string]*ScrapedHistogram{}}
	for k, v := range s.Values {
		if prev != nil {
			v -= prev.Values[k]
		}
		out.Values[k] = v
	}
	for k, h := range s.Hists {
		var ph *ScrapedHistogram
		if prev != nil {
			ph = prev.Hists[k]
		}
		out.Hists[k] = h.Delta(ph)
	}
	return out
}

// ParsePrometheus parses a text exposition (version 0.0.4). Lines it
// cannot interpret are skipped rather than fatal — scrapes should
// degrade, not abort, on exporter quirks. An error is returned only when
// reading fails.
func ParsePrometheus(r io.Reader) (*Scraped, error) {
	s := &Scraped{Values: map[string]float64{}, Hists: map[string]*ScrapedHistogram{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, value, ok := splitSample(line)
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			continue
		}
		base, labels := splitName(name)
		switch {
		case strings.HasSuffix(base, "_bucket"):
			le, rest, ok := extractLE(labels)
			if !ok {
				s.Values[name] = v
				continue
			}
			key := joinName(strings.TrimSuffix(base, "_bucket"), rest)
			h := histAt(s, key)
			h.Buckets = append(h.Buckets, ScrapedBucket{LE: le, Cum: v})
		case strings.HasSuffix(base, "_sum"):
			histAt(s, joinName(strings.TrimSuffix(base, "_sum"), labels)).Sum = v
			s.Values[name] = v
		case strings.HasSuffix(base, "_count"):
			histAt(s, joinName(strings.TrimSuffix(base, "_count"), labels)).Count = v
			s.Values[name] = v
		default:
			s.Values[name] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, h := range s.Hists {
		sort.Slice(h.Buckets, func(i, j int) bool { return h.Buckets[i].LE < h.Buckets[j].LE })
	}
	return s, nil
}

// splitSample splits "name{labels} value [timestamp]" at the sample
// boundary, keeping the label body (which may contain spaces inside
// quoted values) with the name.
func splitSample(line string) (name, value string, ok bool) {
	end := 0
	inQuotes := false
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case c == '\\' && inQuotes:
			i++
		case c == '"':
			inQuotes = !inQuotes
		case (c == ' ' || c == '\t') && !inQuotes:
			end = i
			goto found
		}
	}
	return "", "", false
found:
	name = line[:end]
	rest := strings.Fields(line[end:])
	if len(rest) == 0 {
		return "", "", false
	}
	return name, rest[0], true
}

// extractLE removes the le label from a label body, returning its value
// and the remaining labels.
func extractLE(labels string) (le float64, rest string, ok bool) {
	parts := splitLabels(labels)
	var kept []string
	found := false
	for _, p := range parts {
		k, v, pok := cutLabel(p)
		if !pok {
			kept = append(kept, p)
			continue
		}
		if k == "le" {
			found = true
			if v == "+Inf" {
				le = math.Inf(1)
			} else {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return 0, "", false
				}
				le = f
			}
			continue
		}
		kept = append(kept, p)
	}
	if !found {
		return 0, "", false
	}
	return le, strings.Join(kept, ","), true
}

// splitLabels splits a label body on commas outside quoted values.
func splitLabels(labels string) []string {
	if labels == "" {
		return nil
	}
	var parts []string
	start := 0
	inQuotes := false
	for i := 0; i < len(labels); i++ {
		switch labels[i] {
		case '\\':
			if inQuotes {
				i++
			}
		case '"':
			inQuotes = !inQuotes
		case ',':
			if !inQuotes {
				parts = append(parts, labels[start:i])
				start = i + 1
			}
		}
	}
	parts = append(parts, labels[start:])
	return parts
}

// cutLabel splits one k="v" pair, unquoting the value.
func cutLabel(p string) (k, v string, ok bool) {
	eq := strings.IndexByte(p, '=')
	if eq < 0 {
		return "", "", false
	}
	k = strings.TrimSpace(p[:eq])
	raw := strings.TrimSpace(p[eq+1:])
	unq, err := strconv.Unquote(raw)
	if err != nil {
		return k, raw, true
	}
	return k, unq, true
}

func joinName(base, labels string) string {
	if labels == "" {
		return base
	}
	return base + "{" + labels + "}"
}

func histAt(s *Scraped, key string) *ScrapedHistogram {
	h := s.Hists[key]
	if h == nil {
		h = &ScrapedHistogram{}
		s.Hists[key] = h
	}
	return h
}

// ScrapeURL fetches and parses a /metrics endpoint.
func ScrapeURL(url string) (*Scraped, error) {
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", url, resp.Status)
	}
	return ParsePrometheus(resp.Body)
}
