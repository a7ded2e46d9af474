package query

import "math"

// histBuckets is the number of log-scale buckets. Bucket i covers values
// whose magnitude has bit length i (bucket 0 holds zero and negatives are
// clamped into bucket 0; Scuba metrics — latencies, counts, bytes — are
// non-negative). Log-scale histograms merge by element-wise addition, which
// is what makes percentiles computable across leaves.
const histBuckets = 65

// Histogram is a mergeable log₂ histogram for percentile aggregation.
type Histogram struct {
	Counts [histBuckets]int64
	Total  int64
}

// Add records one value.
func (h *Histogram) Add(v float64) {
	h.Counts[bucketOf(v)]++
	h.Total++
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

// Merge adds another histogram's counts into h.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil {
		return
	}
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	h.Total += o.Total
}

// Quantile returns an approximation of the q'th quantile (0 < q <= 1).
func (h *Histogram) Quantile(q float64) float64 {
	if h.Total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.Total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.Counts {
		seen += c
		if seen >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(histBuckets - 1)
}
