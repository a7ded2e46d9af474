package metrics

import (
	"math"
	"math/bits"
	"sync"
)

// Histogram accumulates non-negative int64 samples into power-of-two
// buckets: bucket i counts samples whose bit length is i, i.e. values in
// [2^(i-1), 2^i). The bucketing gives ~2x relative error on quantile
// estimates at any scale with a fixed 65-slot footprint — enough to tell a
// 100µs query from a 10ms one, which is what the restart and query
// dashboards need. A duration is a Timer, which is a Histogram of
// nanoseconds.
type Histogram struct {
	mu       sync.Mutex
	count    int64
	sum      int64
	min, max int64
	buckets  [65]int64 // index = bits.Len64(value)
}

// Observe records one sample. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bits.Len64(uint64(v))]++
}

// HistogramBucket is one occupied power-of-two bucket in a histogram
// snapshot. Le is the inclusive upper bound of the bucket (0 for the zero
// bucket, 2^i-1 for bucket i), matching Prometheus "le" semantics; Count is
// the number of samples in this bucket alone (not cumulative).
type HistogramBucket struct {
	Le    int64
	Count int64
}

// HistogramStats is a histogram snapshot. P50/P95/P99 are estimated from
// the bucket midpoints, clamped to the observed min/max. Buckets lists the
// occupied buckets in ascending Le order so exposition formats can render the
// full distribution, not just point quantiles.
type HistogramStats struct {
	Count         int64
	Sum           int64
	Min, Max      int64
	P50, P95, P99 int64
	Buckets       []HistogramBucket
}

// Stats snapshots the histogram.
func (h *Histogram) Stats() HistogramStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := HistogramStats{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	st.P50 = h.quantileLocked(0.50)
	st.P95 = h.quantileLocked(0.95)
	st.P99 = h.quantileLocked(0.99)
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		le := int64(0)
		switch {
		case i >= 63:
			// Bucket 63 spans up to 2^63-1 == MaxInt64 (bucket 64 is
			// unreachable for non-negative int64 samples).
			le = math.MaxInt64
		case i > 0:
			le = int64(1)<<i - 1
		}
		st.Buckets = append(st.Buckets, HistogramBucket{Le: le, Count: c})
	}
	return st
}

func (h *Histogram) quantileLocked(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	// rank is 1-based: the sample such that rank samples are <= it.
	rank := int64(q*float64(h.count-1)) + 1
	var seen int64
	for i, c := range h.buckets {
		seen += c
		if seen >= rank {
			// Bucket i spans [2^(i-1), 2^i); report its midpoint, clamped
			// to the observed extremes so tiny sample counts stay honest.
			var lo, hi int64
			if i == 0 {
				lo, hi = 0, 0
			} else {
				lo = int64(1) << (i - 1)
				hi = lo<<1 - 1
			}
			mid := lo + (hi-lo)/2
			if mid < h.min {
				mid = h.min
			}
			if mid > h.max {
				mid = h.max
			}
			return mid
		}
	}
	return h.max
}
