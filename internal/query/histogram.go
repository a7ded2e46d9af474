package query

import (
	"math"
	"math/bits"
)

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

// Add records one value, widening the window to hold it.
func (h *Histogram) Add(v float64) {
	b := bucketOf(v)
	if uint(b-h.Lo) >= uint(len(h.Counts)) {
		h.widen(b)
	}
	h.Counts[b-h.Lo]++
}

// widen moves the histogram to a window that holds bucket b as well, as a
// scan's table of one row moves.
func (h *Histogram) widen(b int) {
	t := flatHist{lo: h.Lo, width: len(h.Counts), counts: h.Counts}
	t.widen(b, 1)
	h.Lo, h.Counts = t.lo, t.counts
}

// flatHist is one percentile aggregation's histograms in a scan, one row of
// counts per group over one window [lo, lo+width) that every group shares: a
// value is a bump at row g, column b-lo, with no per-group window to look up.
// The window starts histWindow wide around the first value and is laid out
// again, every row moved to it, when a value falls outside it.
type flatHist struct {
	lo, width int
	counts    []int64 // groups rows of width
}

// widen lays the table of groups rows out again over a window that holds
// bucket b as well: the first histWindow wide around b, a later one taking in
// b with room beyond it on the side it grew.
func (h *flatHist) widen(b, groups int) {
	lo, hi := min(max(b-histWindow/2, 0), histBuckets-histWindow), 0
	switch {
	case h.width == 0:
		hi = lo + histWindow
	case b < h.lo:
		lo, hi = max(b-histWindow/4, 0), h.lo+h.width
	default:
		lo, hi = h.lo, min(b+1+histWindow/4, histBuckets)
	}
	w := hi - lo
	counts := make([]int64, groups*w)
	for g := 0; h.width > 0 && g < groups; g++ {
		copy(counts[g*w+h.lo-lo:], h.counts[g*h.width:(g+1)*h.width])
	}
	h.lo, h.width, h.counts = lo, w, counts
}

// cut returns group g's row as a histogram, trimmed to the buckets it
// counted; its counts stay in the table, which the histogram shares.
func (h *flatHist) cut(g int) Histogram {
	lo, row := h.lo, h.counts[g*h.width:(g+1)*h.width]
	for len(row) > 0 && row[0] == 0 {
		lo, row = lo+1, row[1:]
	}
	for len(row) > 0 && row[len(row)-1] == 0 {
		row = row[:len(row)-1]
	}
	return Histogram{Lo: lo, Counts: row[:len(row):len(row)]}
}

// bucketOf is 1 + floor(log2(v)) clamped to the bucket range, read off the
// float's exponent field: a value in [2^k, 2^(k+1)) has biased exponent
// k+1023 whatever its mantissa, where math.Log2 rounds the value just below
// 2^k up to k and lands it a bucket high. Zero, negatives and NaN go to
// bucket 0 with the subnormals and everything below 1; +Inf, like anything
// from 2^63 up, goes to the last.
func bucketOf(v float64) int {
	if !(v > 0) {
		return 0
	}
	b := int(math.Float64bits(v)>>52) - 1022
	return min(max(b, 0), histBuckets-1)
}

// bucketOfInt is bucketOf(float64(v)) without the float: an integer in
// (0, 2^53) converts exactly, and its bucket is its bit length. Anything else
// goes through the float, where a 2^k-1 above 2^53 rounds up to 2^k, a
// bucket above its bit length.
func bucketOfInt(v int64) int {
	if uint64(v)-1 < 1<<53-1 {
		return bits.Len64(uint64(v))
	}
	return bucketOf(float64(v))
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
