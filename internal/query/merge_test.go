package query

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"scuba/internal/rowblock"
	"scuba/internal/table"
)

// overWire returns what a peer decodes when res is sent to it: a round trip
// through the result frame (and a deep copy).
func overWire(t testing.TB, res *Result) *Result {
	t.Helper()
	frame, err := res.AppendFrame(nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeResultFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// checkGroups fails unless res keeps Result's invariant: groups in key-tuple
// order, no key twice.
func checkGroups(t testing.TB, name string, res *Result) {
	t.Helper()
	for i := 1; i < len(res.Groups); i++ {
		if a, b := res.Groups[i-1].Key, res.Groups[i].Key; slices.Compare(a, b) >= 0 {
			t.Fatalf("%s: group %d %q is not before group %d %q", name, i-1, a, i, b)
		}
	}
}

// permutations calls visit with every order of 0..n-1.
func permutations(n int, visit func([]int)) {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			visit(order)
			return
		}
		for i := k; i < n; i++ {
			order[k], order[i] = order[i], order[k]
			rec(k + 1)
			order[k], order[i] = order[i], order[k]
		}
	}
	rec(0)
}

// TestMergeIsReferenceOverTheWhole is the merge's property: deal generated
// rows out k ways, scan each part on its own, and however the partials are
// merged — every order, folded from the left or from the right, each one
// having crossed the wire — the rows are the reference's over all the rows,
// and every intermediate result keeps its groups sorted with no key twice.
// The generator brings count-distinct, percentiles, time buckets, NaN sums
// and the ungrouped query's one nil key.
func TestMergeIsReferenceOverTheWhole(t *testing.T) {
	compared := 0
	for seed := int64(0); seed < 64; seed++ {
		c := genKernelCase(seed, uint16(seed*37))
		want, err := Reference(c.rows, c.q)
		if err != nil {
			continue // ill typed: nothing to merge
		}
		k := 2 + int(seed%3)
		rng := rand.New(rand.NewSource(seed))
		parts := make([][]rowblock.Row, k)
		for _, r := range c.rows {
			p := rng.Intn(k)
			if seed%8 == 0 {
				p = min(p, k-2) // the last part holds no rows at all
			}
			parts[p] = append(parts[p], r)
		}
		partials := make([]*Result, k)
		for p, rows := range parts {
			tbl := table.New("k", table.Options{})
			if err := tbl.AddRows(rows[:len(rows)/2], 1); err != nil {
				t.Fatal(err)
			}
			if err := tbl.SealActive(); err != nil {
				t.Fatal(err)
			}
			if err := tbl.AddRows(rows[len(rows)/2:], 1); err != nil {
				t.Fatal(err)
			}
			if partials[p], err = executeOn(1+p%2, tbl, c.q, ExecOptions{}); err != nil {
				t.Fatalf("seed %d part %d: %v (the reference answers the whole)", seed, p, err)
			}
			checkGroups(t, fmt.Sprintf("seed %d part %d", seed, p), partials[p])
		}
		permutations(k, func(order []int) {
			for _, fold := range []string{"left", "right"} {
				name := fmt.Sprintf("seed %d order %v fold %s", seed, order, fold)
				// Merge consumes what it merges: every trial gets its own copies.
				fresh := make([]*Result, k)
				for i, p := range order {
					fresh[i] = overWire(t, partials[p])
				}
				var merged *Result
				if fold == "left" {
					merged = fresh[0]
					for _, next := range fresh[1:] {
						merged.Merge(next)
						checkGroups(t, name, merged)
					}
				} else {
					merged = fresh[k-1]
					for i := k - 2; i >= 0; i-- {
						fresh[i].Merge(merged)
						merged = fresh[i]
						checkGroups(t, name, merged)
					}
				}
				if got := merged.Rows(c.q); !sameRows(got, want.Rows(c.q)) {
					t.Fatalf("%s:\n got %+v\nwant %+v\nquery %+v", name, got, want.Rows(c.q), c.q)
				}
				compared++
			}
		})
	}
	if compared < 200 {
		t.Fatalf("only %d merges compared: the generator's queries mostly fail", compared)
	}
}

// TestSortGroupsFoldsRepeats: an older peer sends its groups in map order,
// and nothing stops a broken one sending a key twice.
func TestSortGroupsFoldsRepeats(t *testing.T) {
	count := func(n int64) []AggState { return []AggState{{Count: n}} }
	res := &Result{Groups: []Group{
		{Key: []string{"b", "x"}, Aggs: count(1)},
		{Key: []string{"a", "y"}, Aggs: count(2)},
		{Key: []string{"b", "x"}, Aggs: count(4)},
		{Key: []string{"a", "x"}, Aggs: count(8)},
	}}
	res.SortGroups()
	checkGroups(t, "sorted", res)
	var got []string
	for _, g := range res.Groups {
		got = append(got, fmt.Sprint(g.Key, g.Aggs[0].Count))
	}
	if want := []string{"[a x] 8", "[a y] 2", "[b x] 5"}; !slices.Equal(got, want) {
		t.Fatalf("groups %v, want %v", got, want)
	}
}
