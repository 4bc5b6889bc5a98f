package server

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// histogram is a fixed-bucket latency histogram. Buckets are upper bounds
// in milliseconds, chosen to straddle the paper's regime (ms-scale
// compiles) up to the timeout.
type histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last = overflow
	total  atomic.Int64
	sumUS  atomic.Int64 // sum in microseconds to keep integer atomics
}

func newHistogram() *histogram {
	bounds := []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 10000}
	return &histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

func (h *histogram) observe(d time.Duration) {
	us := d.Microseconds()
	h.counts[sort.SearchFloat64s(h.bounds, float64(us)/1e3)].Add(1)
	h.total.Add(1)
	h.sumUS.Add(us)
}

// snapshot copies the per-bucket counts (non-cumulative, overflow last),
// the total observation count, and the sum in milliseconds.
func (h *histogram) snapshot() (counts []int64, total int64, sumMS float64) {
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return counts, h.total.Load(), float64(h.sumUS.Load()) / 1e3
}

// percentile estimates the q-quantile (0 < q < 1) from the bucket counts
// with linear interpolation inside the covering bucket — the same estimate
// Prometheus's histogram_quantile makes. The overflow bucket clamps to the
// final bound (there is no upper edge to interpolate toward). Returns 0
// with no observations.
func (h *histogram) percentile(q float64) float64 {
	counts, total, _ := h.snapshot()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	cum := float64(0)
	for i, n := range counts {
		prev := cum
		cum += float64(n)
		if cum < rank || n == 0 {
			continue
		}
		if i >= len(h.bounds) {
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		return lo + (h.bounds[i]-lo)*(rank-prev)/float64(n)
	}
	return h.bounds[len(h.bounds)-1]
}

// String renders the histogram as its /debug/vars JSON, including
// interpolated p50/p95/p99 summary fields so a scrape answers "how slow"
// without the reader summing buckets.
func (h *histogram) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, `{"count":%d,"sum_ms":%.3f,"p50":%.3f,"p95":%.3f,"p99":%.3f,"buckets":{`,
		h.total.Load(), float64(h.sumUS.Load())/1e3,
		h.percentile(0.50), h.percentile(0.95), h.percentile(0.99))
	for i, b := range h.bounds {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `"le_%g":%d`, b, h.counts[i].Load())
	}
	fmt.Fprintf(&sb, `,"inf":%d}}`, h.counts[len(h.bounds)].Load())
	return sb.String()
}
