package main

import (
	"math"
	"sort"
	"time"
)

// series collects the samples of one timing, in milliseconds.
type series []float64

func (s *series) add(d time.Duration) { *s = append(*s, ms(d)) }

// ms is a duration in milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sorted(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// percentile returns the p-th percentile (0 < p <= 100) of v by linear
// interpolation between closest ranks; 0 for an empty series.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
}

func median(v []float64) float64 { return percentile(v, 50) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), so that a spread
// computed here matches the one the driver computes.
func quartiles(v []float64) (q1, q3 float64) {
	n := len(v)
	if n < 2 {
		if n == 1 {
			return v[0], v[0]
		}
		return 0, 0
	}
	s := sorted(v)
	at := func(i int) float64 {
		// position i*(n+1)/4, 1-based; the index is clamped to the data and
		// the weight is not, exactly as in Python.
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}

// tailPermille are the candidates of the reporting rule as the share of
// samples beyond the percentile, in thousandths: p99.9, p99, p95, p90, p75.
var tailPermille = []int{1, 10, 50, 100, 250}

// highestPercentile picks the highest candidate percentile that still has at
// least ten samples beyond it; 50 when even p75 has fewer.
func highestPercentile(n int) float64 {
	for _, share := range tailPermille {
		if n*share >= 10*1000 {
			return 100 - float64(share)/10
		}
	}
	return 50
}
