package query

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHistogramQuantileMonotonic(t *testing.T) {
	h := &Histogram{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		h.Add(rng.Float64() * 1000)
	}
	prev := -1.0
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0} {
		v := h.Quantile(q)
		if v < prev {
			t.Errorf("quantile(%v) = %v < previous %v", q, v, prev)
		}
		prev = v
	}
}

func TestHistogramAccuracy(t *testing.T) {
	// Log-scale buckets: answers are within a factor of 2 of truth.
	h := &Histogram{}
	for i := 1; i <= 10000; i++ {
		h.Add(float64(i))
	}
	for q, truth := range map[float64]float64{0.5: 5000, 0.9: 9000, 0.99: 9900} {
		got := h.Quantile(q)
		if got < truth/2 || got > truth*2 {
			t.Errorf("quantile(%v) = %v, truth %v", q, got, truth)
		}
	}
}

func TestHistogramMergeEquivalence(t *testing.T) {
	// Adding values to one histogram must equal merging two halves.
	whole, a, b := &Histogram{}, &Histogram{}, &Histogram{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		v := math.Abs(rng.NormFloat64()) * 100
		whole.Add(v)
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	a.Merge(b)
	if a.Total != whole.Total {
		t.Fatalf("totals: %d vs %d", a.Total, whole.Total)
	}
	for i := range whole.Counts {
		if a.Counts[i] != whole.Counts[i] {
			t.Fatalf("bucket %d: %d vs %d", i, a.Counts[i], whole.Counts[i])
		}
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	h := &Histogram{}
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile != 0")
	}
	h.Add(0)
	h.Add(-5)
	h.Add(math.NaN())
	if h.Counts[0] != 3 {
		t.Errorf("bucket 0 = %d", h.Counts[0])
	}
	if h.Quantile(0.5) != 0 {
		t.Error("zeros quantile != 0")
	}
	h.Add(math.MaxFloat64)
	if h.Counts[histBuckets-1] != 1 {
		t.Error("huge value not clamped to last bucket")
	}
	h.Merge(nil) // must not panic
}

func TestBucketOfProperty(t *testing.T) {
	f := func(v float64) bool {
		b := bucketOf(math.Abs(v))
		return b >= 0 && b < histBuckets
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Bucket boundaries are ordered: bigger values land in >= buckets.
	prevB := 0
	for v := 0.5; v < 1e12; v *= 2 {
		b := bucketOf(v)
		if b < prevB {
			t.Fatalf("bucketOf(%v) = %d < %d", v, b, prevB)
		}
		prevB = b
	}
}

func TestAggStateMergeIdentity(t *testing.T) {
	var hists []Histogram
	a := newAggState(AggAvg, &hists)
	for i := 1; i <= 10; i++ {
		a.Observe(float64(i))
	}
	empty := newAggState(AggAvg, &hists)
	a.Merge(&empty)
	if a.Count != 10 || a.Sum != 55 || a.Min != 1 || a.Max != 10 {
		t.Errorf("state = %+v", a)
	}
	// Merging into empty preserves values.
	empty.Merge(&a)
	if empty.Value(AggAvg) != 5.5 {
		t.Errorf("avg = %v", empty.Value(AggAvg))
	}
	// Min/Max of empty state finalize to 0, not Inf.
	e2 := newAggState(AggMin, &hists)
	if e2.Value(AggMin) != 0 || e2.Value(AggMax) != 0 {
		t.Error("empty min/max not zero")
	}
}

// log2BucketOf is bucketOf as it was before the exponent read:
// 1 + floor(log2(v)), clamped.
func log2BucketOf(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	b := 1 + int(math.Floor(math.Log2(v)))
	if b < 0 {
		b = 0
	}
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// TestBucketOfAgainstLog2 pins bucketOf to the truth — a positive finite v
// is frac x 2^exp with frac in [0.5, 1), so its bucket is exp, clamped — and
// to the old formula everywhere the old formula was right. It was wrong in
// two places: the float just below 2^k for k = 3..63, where math.Log2 rounds
// up to k and the value landed a bucket high, and +Inf, whose conversion to
// int is undefined and landed it in bucket 0, below every finite value.
func TestBucketOfAgainstLog2(t *testing.T) {
	type input struct {
		v       float64
		moved   bool // the one place the old formula is not the reference
		comment string
	}
	inputs := []input{
		{v: 0}, {v: math.Copysign(0, -1)}, {v: -1}, {v: -1e300}, {v: math.Inf(-1)}, {v: math.NaN()},
		{v: math.Inf(1), moved: true, comment: "+Inf"},
		{v: math.SmallestNonzeroFloat64}, {v: math.Ldexp(1, -1060)}, {v: math.Ldexp(1, -1022)},
		{v: 0.3}, {v: 1.5}, {v: 40.25}, {v: math.MaxFloat64},
	}
	for k := -1074; k <= 1023; k++ {
		p := math.Ldexp(1, k)
		below := math.Nextafter(p, 0)
		inputs = append(inputs,
			input{v: below, moved: k >= 3 && k <= 63, comment: fmt.Sprintf("just below 2^%d", k)},
			input{v: p}, input{v: math.Nextafter(p, math.Inf(1))})
	}
	// Integers above 2^53 are bucketed as the float they convert to: 2^k-1
	// rounds up to 2^k, one bucket above where its bit length would put it.
	for k := 54; k <= 63; k++ {
		i := int64(1)<<k - 1
		if got, bitLen := bucketOf(float64(i)), bits.Len64(uint64(i)); got != min(bitLen+1, histBuckets-1) {
			t.Errorf("bucketOf(float64(2^%d-1)) = %d, bit length %d", k, got, bitLen)
		}
		inputs = append(inputs, input{v: float64(i)}, input{v: float64(int64(1) << (k - 1))})
	}
	for _, in := range inputs {
		got := bucketOf(in.v)
		if want := log2BucketOf(in.v); (got != want) != in.moved {
			t.Errorf("bucketOf(%g) = %d, the log2 formula gives %d (moved: %v %s)", in.v, got, want, in.moved, in.comment)
		}
		if in.v > 0 && !math.IsInf(in.v, 0) {
			if _, exp := math.Frexp(in.v); got != min(max(exp, 0), histBuckets-1) {
				t.Errorf("bucketOf(%g) = %d, exponent says %d", in.v, got, exp)
			}
		}
	}
	if got := bucketOf(math.Inf(1)); got != histBuckets-1 {
		t.Errorf("bucketOf(+Inf) = %d, want the last bucket", got)
	}
}
