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

// denseHistogram is the histogram as every binary through protocol 3 held
// it, all 65 buckets whether a value reached them or not: the reference the
// windowed one is checked against.
type denseHistogram struct {
	Counts [histBuckets]int64
	Total  int64
}

func (h *denseHistogram) Add(v float64) {
	h.Counts[bucketOf(v)]++
	h.Total++
}

func (h *denseHistogram) Merge(o *denseHistogram) {
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	h.Total += o.Total
}

func (h *denseHistogram) Quantile(q float64) float64 {
	if h.Total == 0 {
		return 0
	}
	rank := max(int64(math.Ceil(q*float64(h.Total))), 1)
	var seen int64
	for i, c := range h.Counts {
		if seen += c; seen >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(histBuckets - 1)
}

// sameAsDense fails unless h says what d says: every bucket, the total and
// the three quantiles a query can ask for.
func sameAsDense(t *testing.T, name string, h *Histogram, d *denseHistogram) {
	t.Helper()
	if h.Lo < 0 || h.Lo+len(h.Counts) > histBuckets {
		t.Fatalf("%s: window [%d, %d) leaves the bucket range", name, h.Lo, h.Lo+len(h.Counts))
	}
	var got [histBuckets]int64
	copy(got[h.Lo:], h.Counts)
	if got != d.Counts {
		t.Fatalf("%s: buckets\n%v, dense\n%v", name, got, d.Counts)
	}
	if h.Total() != d.Total {
		t.Fatalf("%s: total %d, dense %d", name, h.Total(), d.Total)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if g, w := h.Quantile(q), d.Quantile(q); g != w {
			t.Fatalf("%s: quantile(%v) = %v, dense %v", name, q, g, w)
		}
	}
}

// TestWindowedHistogramAgainstDense: whatever the values and whichever way
// the window has to move, the windowed histogram holds what the dense one
// holds — after every Add, and after merges of windows that overlap, touch
// or lie apart, in both directions.
func TestWindowedHistogramAgainstDense(t *testing.T) {
	var powers []float64
	for k := 0; k <= 64; k++ {
		p := math.Exp2(float64(k))
		powers = append(powers, math.Nextafter(p, 0), p, math.Nextafter(p, math.Inf(1)), p-1, p+1)
	}
	rng := rand.New(rand.NewSource(11))
	var mixed []float64
	for i := 0; i < 4000; i++ {
		mixed = append(mixed, math.Exp2(rng.Float64()*70-3))
	}
	var outward []float64 // from the middle, down and up in turn
	for k := 0; k < 33; k++ {
		outward = append(outward, math.Exp2(float64(32-k)), math.Exp2(float64(32+k)))
	}
	streams := map[string][]float64{
		"nothing":    nil,
		"zeros":      {0, 0, 0},
		"unordered":  {math.NaN(), -1, math.Inf(-1), 0, math.Inf(1), math.MaxFloat64, math.SmallestNonzeroFloat64},
		"powers":     powers,
		"descending": {1e18, 1e15, 1e12, 1e9, 1e6, 1e3, 1, 0},
		"ascending":  {0, 1, 1e3, 1e6, 1e9, 1e12, 1e15, 1e18, math.Inf(1)},
		"outward":    outward,
		"narrow":     {100, 101, 150, 120, 99, 300, 64, 63},
		"small":      {0.5, 1, 2, 3, 2, 1},
		"huge":       {1e18, 2e18, 8e18, 1e19, 1e300},
		"mixed":      mixed,
	}
	// A scan's table: each stream is the middle group of a flat table of
	// three, between a low and a high neighbour in both orders, so that the
	// shared window widens up and down with every row holding counts. The
	// groups join one round after another, their values interleaved and fed
	// in batches, so the window widens between batches and inside them.
	flat := func(name string, groups ...[]float64) Histogram {
		var table aggColumn
		dense := make([]denseHistogram, len(groups))
		var vals []float64
		var grp, sel []uint32
		for round := 0; round < len(mixed)+len(groups); round++ { // mixed is the longest stream
			for g, stream := range groups[:min(round+1, len(groups))] {
				if at := round - g; at < len(stream) {
					vals, grp = append(vals, stream[at]), append(grp, uint32(g))
				}
			}
		}
		joined := 0
		for len(vals) > 0 {
			n := min(1+rng.Intn(64), len(vals))
			sel = sel[:0]
			for k := range n {
				for ; joined <= int(grp[k]); joined++ {
					table.add(AggP99)
				}
				sel = append(sel, uint32(k))
				dense[grp[k]].Add(vals[k])
			}
			bumpAll(&table.hist, joined, vals, grp, sel)
			vals, grp = vals[n:], grp[n:]
			for g := range joined {
				h := table.hist.cut(g)
				sameAsDense(t, fmt.Sprintf("%s, group %d of a flat table", name, g), &h, &dense[g])
			}
		}
		return table.hist.cut(1)
	}
	built := map[string]*Histogram{}
	dense := map[string]*denseHistogram{}
	for name, vals := range streams {
		h, d := &Histogram{}, &denseHistogram{}
		for _, v := range vals {
			h.Add(v)
			d.Add(v)
			sameAsDense(t, name, h, d)
		}
		flat(name, streams["huge"], vals, streams["narrow"])
		cut := flat(name, streams["narrow"], vals, streams["huge"])
		built[name], dense[name] = &cut, d
	}
	clone := func(h *Histogram) *Histogram {
		return &Histogram{Lo: h.Lo, Counts: append([]int64(nil), h.Counts...)}
	}
	for an, a := range built {
		for bn, b := range built {
			got, want := clone(a), *dense[an]
			got.Merge(b)
			want.Merge(dense[bn])
			sameAsDense(t, an+" + "+bn, got, &want)
		}
	}
	(&Histogram{}).Merge(nil) // must not panic
}

// TestHistogramCountsSaturate: counts a peer sent are added without wrapping.
func TestHistogramCountsSaturate(t *testing.T) {
	a := &Histogram{Lo: 3, Counts: []int64{math.MaxInt64 - 1, 5}}
	a.Merge(&Histogram{Lo: 3, Counts: []int64{7, 1}})
	if a.Counts[0] != math.MaxInt64 || a.Counts[1] != 6 || a.Total() != math.MaxInt64 {
		t.Fatalf("merged %v, total %d", a.Counts, a.Total())
	}
	if q := a.Quantile(0.5); q != bucketMid(3) {
		t.Fatalf("median %v, want bucket 3's", q)
	}
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
	a := newAggState(AggAvg)
	for i := 1; i <= 10; i++ {
		a.Observe(float64(i))
	}
	empty := newAggState(AggAvg)
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
	e2 := newAggState(AggMin)
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

// TestBucketOfIntAgainstFloat: the integer kernels' bucket is the converted
// float's at every edge of its shortcut — the sign, zero, every power of two
// and its neighbours, and around 2^53, past which the conversion rounds a
// 2^k-1 up a bucket.
func TestBucketOfIntAgainstFloat(t *testing.T) {
	edges := []int64{math.MinInt64, -1, 0, 1, 1<<53 - 1, 1 << 53, 1<<53 + 1, 1<<54 - 1, math.MaxInt64}
	for k := 1; k <= 62; k++ {
		edges = append(edges, 1<<k-1, 1<<k, 1<<k+1)
	}
	for _, v := range edges {
		if got, want := bucketOfInt(v), bucketOf(float64(v)); got != want {
			t.Errorf("bucketOfInt(%d) = %d, the converted float's bucket %d", v, got, want)
		}
	}
}
