package query

import "math"

// histBuckets is the number of log-scale buckets. Bucket i covers values
// whose magnitude has bit length i (bucket 0 holds zero and negatives are
// clamped into bucket 0; Scuba metrics — latencies, counts, bytes — are
// non-negative). Log-scale histograms merge by element-wise addition, which
// is what makes percentiles computable across leaves.
const histBuckets = 65

// histWindow is how many buckets a histogram's window starts with, placed
// around the first value it sees. A group's values span about ten buckets
// (three decimal orders of magnitude), so most windows never move.
const histWindow = 16

// Histogram is a mergeable log₂ histogram for percentile aggregation: the
// counts of buckets [Lo, Lo+len(Counts)), every bucket outside the window
// empty. The window widens on demand, so a group pays for the buckets its
// values reach rather than for all 65; the zero value is an empty histogram.
// Counts are int64, as a group's Count is: no number of observations a
// process can make wraps one, and Merge, which adds counts a peer sent,
// saturates.
type Histogram struct {
	Lo     int
	Counts []int64
}

// Add records one value.
func (h *Histogram) Add(v float64) { h.bump(bucketOf(v)) }

// bump counts one value in bucket b, widening the window to hold it.
func (h *Histogram) bump(b int) {
	if uint(b-h.Lo) >= uint(len(h.Counts)) {
		h.widen(b)
	}
	h.Counts[b-h.Lo]++
}

// widen moves the histogram to a window that holds bucket b as well. The
// first window is histWindow wide around b, cut from the capacity Counts came
// with when its maker gave it any (a scan does, see histRoom); a later one
// takes in b with room beyond it on the side it grew, on the heap.
func (h *Histogram) widen(b int) {
	if len(h.Counts) == 0 {
		h.Lo = min(max(b-histWindow/2, 0), histBuckets-histWindow)
		if cap(h.Counts) >= histWindow {
			h.Counts = h.Counts[:histWindow]
		} else {
			h.Counts = make([]int64, histWindow)
		}
		return
	}
	lo, hi := h.Lo, h.Lo+len(h.Counts)
	if b < lo {
		lo = max(b-histWindow/4, 0)
	} else {
		hi = min(b+1+histWindow/4, histBuckets)
	}
	counts := make([]int64, hi-lo)
	copy(counts[h.Lo-lo:], h.Counts)
	h.Lo, h.Counts = lo, counts
}

// histRoom is a histogram with its first window beside it, so that the one
// is a cache line from the other and a scan's 2,400 of both are a slab.
type histRoom struct {
	Histogram
	room [histWindow]int64
}

// bucketOf is 1 + floor(log2(v)) clamped to the bucket range, read off the
// float's exponent field: a value in [2^k, 2^(k+1)) has biased exponent
// k+1023 whatever its mantissa, where math.Log2 rounds the value just below
// 2^k up to k and lands it a bucket high. Zero, negatives and NaN go to
// bucket 0 with the subnormals and everything below 1; +Inf, like anything
// from 2^63 up, goes to the last. The integer kernels bucket the converted
// float (a bits.Len64 shortcut would put 2^k-1 above 2^53, which converts
// to 2^k, a bucket low).
func bucketOf(v float64) int {
	if !(v > 0) {
		return 0
	}
	b := int(math.Float64bits(v)>>52) - 1022
	return min(max(b, 0), histBuckets-1)
}

// bucketMid returns a representative value for a bucket (geometric middle).
func bucketMid(b int) float64 {
	if b == 0 {
		return 0
	}
	lo := math.Exp2(float64(b - 1))
	return lo * 1.5
}

// addSat is a + b for counts, which are never negative: a sum past the
// range stays at its end.
func addSat(a, b int64) int64 {
	if s := a + b; s >= a {
		return s
	}
	return math.MaxInt64
}

// Merge adds another histogram's counts into h.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil {
		return
	}
	// Only the buckets o has counted in need a place in h's window.
	lo, counts := o.Lo, o.Counts
	for len(counts) > 0 && counts[0] == 0 {
		lo, counts = lo+1, counts[1:]
	}
	for len(counts) > 0 && counts[len(counts)-1] == 0 {
		counts = counts[:len(counts)-1]
	}
	if len(counts) == 0 {
		return
	}
	if lo < h.Lo || len(h.Counts) == 0 {
		h.widen(lo)
	}
	if hi := lo + len(counts); hi > h.Lo+len(h.Counts) {
		h.widen(hi - 1)
	}
	into := h.Counts[lo-h.Lo:]
	for i, c := range counts {
		into[i] = addSat(into[i], c)
	}
}

// Total returns how many values the histogram holds.
func (h *Histogram) Total() int64 {
	var total int64
	for _, c := range h.Counts {
		total = addSat(total, c)
	}
	return total
}

// Quantile returns an approximation of the q'th quantile (0 < q <= 1).
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Total()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.Counts {
		seen = addSat(seen, c)
		if seen >= rank {
			return bucketMid(h.Lo + i)
		}
	}
	return bucketMid(histBuckets - 1)
}
