package query

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"scuba/internal/rowblock"
	"scuba/internal/table"
)

// kernelCase is one generated table and query for FuzzScanKernels: the rows
// in ingest order (what Reference answers over) and where the block
// boundaries fall.
type kernelCase struct {
	rows   []rowblock.Row
	blocks []int // rows per sealed block, in order; the rest stay unsealed
	q      *Query
}

// Columns of a generated table. The core ones are in every row; the
// optional ones are carried by every row of some blocks and no row of the
// others (a column absent from a block); ghost is in none.
//
//	n     int64, narrow range (dense ranks)       on  optional int64
//	wide  int64, spread over 2^40 (hashed ranks)   of  optional float64
//	big   int64 above 2^53: 2^k-1 and 2^k          os  optional string
//	fl    float64: quarters, negatives, -0,        oset optional string set
//	      and when the shape says so NaN and ±Inf
//	s1,s2 strings, dictionary sizes 1 / 2 / 300 (s1's pool shifts by block;
//	      or, when the shape says so, every block holds the same pairs with
//	      the same dictionaries and only their order differs)
//	set   string set over a pool of 3 or 300 tags
//
// and, when the shape says so, in every row:
//
//	gid   int64, 160 values: groups by the hundred in one block
//	pw    int64: powers of two over 40 buckets, or the edges of the integer
//	      bucket (2^53 and its neighbours, 2^k-1, 0, -1, the extremes)
//	pf    float64: powers of two over 40 buckets, or NaN, ±Inf, negatives
//	      and subnormals
//
// Every numeric value but the edges is a small multiple of a power of two,
// so a sum is exact in float64 whatever order the workers merge in; the
// edges are not summed.
func genKernelCase(seed int64, shape uint16) kernelCase {
	rng := rand.New(rand.NewSource(seed))
	dictSizes := []int{1, 2, 300}
	d1, d2 := dictSizes[int(shape)%3], dictSizes[int(shape>>2)%3]
	tagPool := []int{3, 300}[int(shape>>4)%2]
	nonFinite := shape>>5&1 == 1
	perBlock := 20 + rng.Intn(40)
	spread, edges := shape>>14&1 == 1, shape>>15&1 == 1
	if d1 == 300 || d2 == 300 || tagPool == 300 || spread {
		perBlock = 300 + rng.Intn(60) // room for the whole dictionary in a block
	}
	numBlocks := 1 + rng.Intn(3)
	tail := 0
	if shape>>6&1 == 1 {
		tail = 1 + rng.Intn(perBlock)
	}

	// recur: one list of (s1, s2) pairs for every block. Its head walks both
	// dictionaries in order, so they come out the same in every block; the
	// rest is reshuffled block by block, so pairs renumbered by first sight
	// get other numbers — the same count of them — in the next block.
	var pairs [][2]int
	if shape>>7&1 == 1 {
		pairs = make([][2]int, perBlock)
		for i := range pairs {
			pairs[i] = [2]int{i % d1, i % d2}
			if i >= max(d1, d2) {
				pairs[i] = [2]int{rng.Intn(d1), rng.Intn(d2)}
			}
		}
	}

	c := kernelCase{}
	t := int64(-150 + rng.Intn(100)) // negative times first: buckets must floor
	for b := 0; b <= numBlocks; b++ {
		size := perBlock
		if b == numBlocks {
			size = tail
		} else {
			c.blocks = append(c.blocks, size)
		}
		has := map[string]bool{"on": rng.Intn(2) == 0, "of": rng.Intn(2) == 0, "os": rng.Intn(2) == 0, "oset": rng.Intn(2) == 0}
		// Blocks draw s1 from shifted pools: dictionaries of one size whose
		// IDs mean different strings, which a kept tuple table must notice.
		shift := rng.Intn(2)
		if pairs != nil {
			shift = 0
			rest := pairs[min(max(d1, d2), perBlock):]
			rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
		}
		for i := 0; i < size; i++ {
			t += int64(rng.Intn(3))
			fl := float64(rng.Intn(41)-20) / 4
			if nonFinite {
				switch rng.Intn(12) {
				case 0:
					fl = math.NaN()
				case 1:
					fl = math.Inf(1)
				case 2:
					fl = math.Inf(-1)
				case 3:
					fl = math.Copysign(0, -1)
				}
			}
			var tags []string
			for j := rng.Intn(4); j > 0; j-- {
				tags = append(tags, fmt.Sprintf("tag%d", rng.Intn(tagPool)))
			}
			pair := [2]int{rng.Intn(d1), rng.Intn(d2)}
			if pairs != nil {
				pair = pairs[i]
			}
			cols := map[string]rowblock.Value{
				"n":    rowblock.Int64Value(int64(rng.Intn(9) - 3)),
				"wide": rowblock.Int64Value(int64(rng.Intn(5)) << 40),
				"big":  rowblock.Int64Value(int64(1)<<(54+rng.Intn(8)) - int64(rng.Intn(2))),
				"fl":   rowblock.Float64Value(fl),
				"s1":   rowblock.StringValue(fmt.Sprintf("a%d", shift+pair[0])),
				"s2":   rowblock.StringValue(fmt.Sprintf("b%d", pair[1])),
				"set":  rowblock.SetValue(tags...),
			}
			if has["on"] {
				cols["on"] = rowblock.Int64Value(int64(rng.Intn(5) - 2))
			}
			if has["of"] {
				cols["of"] = rowblock.Float64Value(float64(rng.Intn(9)-4) / 2)
			}
			if has["os"] {
				cols["os"] = rowblock.StringValue(fmt.Sprintf("o%d", rng.Intn(3)))
			}
			if has["oset"] {
				cols["oset"] = rowblock.SetValue(fmt.Sprintf("tag%d", rng.Intn(3)))
			}
			if spread || edges {
				pw, pf := int64(1)<<rng.Intn(40), math.Ldexp(1, rng.Intn(40)-10)
				if edges {
					k := 1 + rng.Intn(62)
					pw = []int64{1<<53 - 1, 1 << 53, 1<<53 + 1, 1<<k - 1, 1 << k, 0, -1, math.MinInt64, math.MaxInt64}[rng.Intn(9)]
					pf = []float64{math.NaN(), math.Inf(1), math.Inf(-1), -math.Ldexp(1, k), math.SmallestNonzeroFloat64 * float64(k), math.Ldexp(1, k)}[rng.Intn(6)]
				}
				cols["gid"] = rowblock.Int64Value(int64(rng.Intn(160)))
				cols["pw"], cols["pf"] = rowblock.Int64Value(pw), rowblock.Float64Value(pf)
			}
			c.rows = append(c.rows, rowblock.Row{Time: t, Cols: cols})
		}
	}

	// The query. Filters on an optional column stay well typed and group-by
	// / count-distinct take only the optional string: a block that lacks a
	// column reads the operand's zero, which is the column's own zero (the
	// reference's reading) only then. Everything else may be ill typed — the
	// error has to surface exactly when the reference's does.
	q := &Query{Table: "k", From: math.MinInt64, To: math.MaxInt64}
	if rng.Intn(3) > 0 { // cut through the blocks' time ranges
		lo, hi := c.rows[0].Time, c.rows[len(c.rows)-1].Time
		q.From = lo + rng.Int63n(hi-lo+1)
		q.To = q.From + rng.Int63n(hi-q.From+1)
	}
	q.TimeBucketSeconds = []int64{0, 0, 7, 50}[rng.Intn(4)]
	ops := []CompareOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpContains}
	for i := rng.Intn(4); i > 0; i-- {
		f := Filter{Op: ops[rng.Intn(6)]}
		switch rng.Intn(12) {
		case 0:
			f.Column, f.Int = "n", int64(rng.Intn(9)-3)
		case 1:
			f.Column, f.Int = "wide", int64(rng.Intn(5))<<40
		case 2:
			f.Column, f.Float = "fl", float64(rng.Intn(41)-20)/4
		case 3:
			f.Column, f.Str = "s1", fmt.Sprintf("a%d", rng.Intn(d1+2))
		case 4:
			f.Column, f.Str = "s2", fmt.Sprintf("b%d", rng.Intn(d2+1))
		case 5, 6:
			f.Column, f.Op, f.Str = "set", OpContains, fmt.Sprintf("tag%d", rng.Intn(tagPool+1))
		case 7:
			f.Column, f.Int = "on", int64(rng.Intn(5)-2)
		case 8:
			f.Column, f.Float = "of", float64(rng.Intn(9)-4)/2
		case 9:
			f.Column, f.Str = "os", fmt.Sprintf("o%d", rng.Intn(4))
		case 10:
			f.Column, f.Op, f.Str = "oset", OpContains, fmt.Sprintf("tag%d", rng.Intn(4))
		case 11: // ill typed, or a column nobody has
			f.Column = []string{"n", "fl", "s1", "set", "ghost"}[rng.Intn(5)]
			f.Op, f.Str, f.Int = ops[rng.Intn(7)], "tag1", 1
		}
		q.Filters = append(q.Filters, f)
	}
	groupable := []string{"s1", "s1", "s2", "s2", "os", "n", "wide", "fl", "ghost", "big"}
	for i := rng.Intn(4); i > 0; i-- {
		q.GroupBy = append(q.GroupBy, groupable[rng.Intn(len(groupable))])
	}
	if rng.Intn(20) == 0 {
		q.GroupBy = append(q.GroupBy, "set") // cannot be grouped by
	}
	if pairs != nil && rng.Intn(2) == 0 {
		// Every row of every block, grouped by the recurring pairs alone.
		q.From, q.To, q.TimeBucketSeconds, q.Filters = math.MinInt64, math.MaxInt64, 0, nil
		q.GroupBy = []string{"s1", "s2"}
	}
	aggOps := []AggOp{AggSum, AggMin, AggMax, AggAvg, AggP50, AggP90, AggP99}
	numeric := []string{"n", "wide", "big", "fl", "on", "of", "ghost"}
	distinct := []string{"s1", "s2", "n", "fl", "os", "ghost", "big"}
	q.Aggregations = []Aggregation{{Op: AggCount}}
	for i := rng.Intn(4); i > 0; i-- {
		switch rng.Intn(8) {
		case 0:
			q.Aggregations = append(q.Aggregations, Aggregation{Op: AggCount})
		case 1, 2:
			q.Aggregations = append(q.Aggregations, Aggregation{Op: AggCountDistinct, Column: distinct[rng.Intn(len(distinct))]})
		case 3:
			// Ill typed: a string cannot be summed, a set cannot be counted.
			q.Aggregations = append(q.Aggregations,
				[]Aggregation{{Op: AggSum, Column: "s1"}, {Op: AggCountDistinct, Column: "set"}}[rng.Intn(2)])
		default:
			q.Aggregations = append(q.Aggregations, Aggregation{Op: aggOps[rng.Intn(len(aggOps))], Column: numeric[rng.Intn(len(numeric))]})
		}
	}
	if spread {
		// Bit 14: a hundred groups and more in every block, then values over
		// 40 buckets, so a percentile's shared window widens mid-block with
		// every group's row in it.
		q.From, q.To, q.Filters, q.GroupBy = math.MinInt64, math.MaxInt64, nil, []string{"gid"}
	}
	if spread || edges {
		// Bit 15 puts the integer bucket's edges and the floats that are no
		// number, or no normal one, in the percentile and extreme columns.
		q.Aggregations = append(q.Aggregations, Aggregation{Op: AggP99, Column: "pw"}, Aggregation{Op: AggP50, Column: "pf"},
			Aggregation{Op: AggMin, Column: "pw"}, Aggregation{Op: AggMax, Column: "pf"},
			Aggregation{Op: AggP90, Column: "pw"}, Aggregation{Op: AggMin, Column: "pf"})
		if !edges {
			q.Aggregations = append(q.Aggregations, Aggregation{Op: AggSum, Column: "pw"}, Aggregation{Op: AggAvg, Column: "pf"})
		}
	}
	if shape>>8&1 == 1 {
		// One group: no group-by, no bucket, and one aggregate of every kind a
		// scanner folds without working out a group per row (the generated ones
		// stay). Bits 9-10 say which rows are live: every row of every block (a
		// count then touches no column), a range that cuts through blocks, none
		// (filtered to empty: no group at all), or what was generated above.
		q.GroupBy, q.TimeBucketSeconds = nil, 0
		q.Aggregations = append(q.Aggregations, Aggregation{Op: AggSum, Column: "fl"},
			Aggregation{Op: AggP99, Column: "n"}, Aggregation{Op: AggCountDistinct, Column: "s1"},
			Aggregation{Op: AggMax, Column: "on"}, Aggregation{Op: AggCountDistinct, Column: "ghost"})
		switch lo, hi := c.rows[0].Time, c.rows[len(c.rows)-1].Time; shape >> 9 & 3 {
		case 0:
			q.From, q.To, q.Filters = math.MinInt64, math.MaxInt64, nil
		case 1:
			q.From, q.To, q.Filters = lo+(hi-lo)/3, hi-(hi-lo)/3, nil
		case 2:
			q.Filters = append(q.Filters, Filter{Column: "s2", Op: OpEq, Str: "nobody"})
		}
	}
	// The tail: the rows no sealed block holds, or every row when none are
	// left over (the all-unsealed table holds them in one builder). Bits
	// 11-12 put the range's ends where a search over its ascending times can
	// slip: on a run of tied times, on the tail's first row, on its last.
	tail0 := c.rows[len(c.rows)-tail:]
	if tail == 0 {
		tail0 = c.rows
	}
	at := func() int64 { return tail0[rng.Intn(len(tail0))].Time }
	switch shape >> 11 & 3 {
	case 1:
		for i := 1 + rng.Intn(len(tail0)); i < len(tail0); i++ {
			if tail0[i].Time == tail0[i-1].Time {
				q.From, q.To = tail0[i].Time, max(tail0[i].Time, at())
				break
			}
		}
	case 2:
		q.From, q.To = tail0[0].Time, at()
	case 3:
		q.From, q.To = at(), tail0[len(tail0)-1].Time
	}
	// Bit 13 breaks the time order in the tail (or, with a one-row tail, in
	// every row): one straggler, two neighbours out of order, or the tail
	// reversed. The scan must then compare each tail row's time.
	if shape>>13&1 == 1 {
		if len(tail0) < 2 {
			tail0 = c.rows
		}
		switch i := 1 + rng.Intn(len(tail0)-1); rng.Intn(3) {
		case 0:
			tail0[i].Time = tail0[0].Time - 1 - int64(rng.Intn(3))
		case 1:
			tail0[i].Time, tail0[i-1].Time = tail0[i-1].Time, tail0[i].Time+1
		case 2:
			for l, r := 0, len(tail0)-1; l < r; l, r = l+1, r-1 {
				tail0[l].Time, tail0[r].Time = tail0[r].Time, tail0[l].Time
			}
		}
	}
	if rng.Intn(4) == 0 {
		// Order by the count: an aggregate that can be NaN has no order.
		q.OrderBy = &Order{Agg: 0, Asc: rng.Intn(2) == 0}
	}
	if rng.Intn(4) == 0 {
		q.Limit = 1 + rng.Intn(5)
	}
	c.q = q
	return c
}

// table loads the case's rows, sealing at the block boundaries — or, when
// sealed is false, leaving every row in the unsealed builder.
func (c kernelCase) table(t testing.TB, sealed bool) *table.Table {
	t.Helper()
	tbl := table.New("k", table.Options{})
	at := 0
	for _, size := range c.blocks {
		if err := tbl.AddRows(c.rows[at:at+size], 1); err != nil {
			t.Fatal(err)
		}
		at += size
		if sealed {
			if err := tbl.SealActive(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if at < len(c.rows) {
		if err := tbl.AddRows(c.rows[at:], 1); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// sameRows is reflect.DeepEqual on two Rows(q) lists with NaN equal to NaN
// (a sum over a NaN is one on both sides and must compare so).
func sameRows(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i].Key, b[i].Key) || len(a[i].Values) != len(b[i].Values) {
			return false
		}
		for j, v := range a[i].Values {
			if w := b[i].Values[j]; v != w && !(math.IsNaN(v) && math.IsNaN(w)) {
				return false
			}
		}
	}
	return true
}

// FuzzScanKernels checks the block scan — selection vectors, the encoded
// string-set walk, dictionary-ID grouping in its dense and renumbered forms,
// the per-op aggregate kernels and a percentile's flat table, whose window
// widens under a hundred groups, the tuple table kept across blocks, the
// one-group plan that skips grouping, the time range found by binary search
// in an ascending tail or compared row by row in any other block — against
// Reference, row at a time over the same rows: equal Rows(q), equal
// error-ness and groups in key order with no key twice, over sealed blocks (with an unsealed tail or without) and over
// one unsealed snapshot, at 1 and 4 workers, with no decode cache, a cold
// one and a warm one.
func FuzzScanKernels(f *testing.F) {
	for seed := int64(0); seed < 96; seed++ {
		f.Add(seed, uint16(seed*37))
	}
	f.Add(int64(7), uint16(0b1100010))   // unsealed tail, NaN/Inf, 300 x 300 > 65k tuples
	f.Add(int64(8), uint16(0b0011010))   // 300 tags: two-byte IDs in the set rows
	f.Add(int64(4), uint16(0b10000000))  // 300 x 300 recurring pairs, reshuffled per block
	f.Add(int64(11), uint16(0b10000000)) // the same over three blocks
	for seed := int64(0); seed < 16; seed++ {
		// One group (bit 8): all rows / partly in range / filtered to empty /
		// as generated, with and without an unsealed tail and NaN/Inf values.
		f.Add(seed, uint16(1<<8|(seed&3)<<9|(seed>>2&1)<<6|(seed>>3&1)<<5))
	}
	for seed := int64(0); seed < 24; seed++ {
		// The range's ends on tied times, the tail's first row or its last
		// (bits 11-12), with an unsealed tail and without (bit 6), the tail
		// ascending or not (bit 13).
		f.Add(seed, uint16((seed%3+1)<<11|(seed/3&1)<<6|(seed/6&1)<<13|seed/12))
	}
	for seed := int64(0); seed < 16; seed++ {
		// A percentile's window widening mid-block under 100-odd groups (bit
		// 14), the integer bucket's edges and NaN, ±Inf, negative and
		// subnormal floats (bit 15), and both; with an unsealed tail and
		// without (bit 6).
		f.Add(seed, uint16((seed%3+1)<<14|(seed/3&1)<<6))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint16) {
		c := genKernelCase(seed, shape)
		want, wantErr := Reference(c.rows, c.q)
		check := func(name string, got *Result, err error) {
			t.Helper()
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%s: error %v, reference error %v\nquery %+v", name, err, wantErr, c.q)
			}
			if err != nil {
				return
			}
			checkGroups(t, name, got)
			if !sameRows(got.Rows(c.q), want.Rows(c.q)) {
				t.Fatalf("%s:\n got %+v\nwant %+v\nquery %+v", name, got.Rows(c.q), want.Rows(c.q), c.q)
			}
		}
		sealed := c.table(t, true)
		for _, workers := range []int{1, 4} {
			got, err := executeOn(workers, sealed, c.q, ExecOptions{})
			check(fmt.Sprintf("sealed, %d workers, no cache", workers), got, err)
			dc := NewDecodeCache(8<<20, nil)
			for _, state := range []string{"cold", "warm"} {
				got, err := executeOn(workers, sealed, c.q, ExecOptions{Cache: dc})
				check(fmt.Sprintf("sealed, %d workers, %s cache", workers, state), got, err)
			}
		}
		got, err := Execute(c.table(t, false), c.q, ExecOptions{})
		check("unsealed", got, err)
	})
}

// TestScanAllocsPerBlock pins what a cold scan-class query allocates: a few
// slices per decoded column per block and a few objects per group, and
// nothing per row — four times the rows in the same number of blocks and
// groups allocates the same.
func TestScanAllocsPerBlock(t *testing.T) {
	const blocks, groups, columns = 4, 6 * 5, 5
	q := &Query{
		Table: "a", From: 0, To: 1 << 40,
		Filters: []Filter{{Column: "tags", Op: OpContains, Str: "prod"}},
		GroupBy: []string{"host", "service"},
		Aggregations: []Aggregation{
			{Op: AggCount}, {Op: AggAvg, Column: "cpu"}, {Op: AggP99, Column: "latency"},
		},
	}
	allocs := func(perBlock int) float64 {
		tbl := table.New("a", table.Options{})
		for b := 0; b < blocks; b++ {
			rows := make([]rowblock.Row, perBlock)
			for i := range rows {
				rows[i] = rowblock.Row{Time: int64(b*perBlock + i), Cols: map[string]rowblock.Value{
					"host":    rowblock.StringValue(fmt.Sprintf("h%d", i%6)),
					"service": rowblock.StringValue(fmt.Sprintf("s%d", i%5)),
					"cpu":     rowblock.Float64Value(float64(i%16) / 4),
					"latency": rowblock.Int64Value(int64(i % 97)),
					"tags":    rowblock.SetValue("prod", fmt.Sprintf("tier%d", i%3)),
				}}
			}
			if err := tbl.AddRows(rows, 1); err != nil {
				t.Fatal(err)
			}
			if err := tbl.SealActive(); err != nil {
				t.Fatal(err)
			}
		}
		run := func() {
			res, err := executeOn(1, tbl, q, ExecOptions{})
			if err != nil || len(res.Groups) != groups || res.RowsScanned != int64(blocks*perBlock) {
				t.Fatalf("scan: %v, %d groups, %d rows", err, len(res.Groups), res.RowsScanned)
			}
		}
		run() // size the pooled scratch
		return testing.AllocsPerRun(20, run)
	}
	small, large := allocs(500), allocs(2000)
	if budget := float64(8*blocks*columns + 8*groups + 40); small > budget {
		t.Errorf("a cold scan of %d blocks x %d columns into %d groups allocated %.0f times, budget %.0f", blocks, columns, groups, small, budget)
	}
	// A GC between runs empties the pools and a scanner's scratch is made
	// again, a few dozen allocations; a per-row allocation would be 6,000.
	if large > small+100 {
		t.Errorf("4x the rows allocated %.0f times against %.0f: something allocates per row", large, small)
	}
}

// TestTupleTableAcrossBlocks pins when a block may keep the last block's
// tuple → group table: same dictionaries, yes; dictionaries of the same size
// whose IDs mean other strings, no.
func TestTupleTableAcrossBlocks(t *testing.T) {
	var rows []rowblock.Row
	tbl := table.New("k", table.Options{})
	for b, pool := range [][]string{{"a", "b"}, {"a", "b"}, {"b", "c"}, {"b", "c"}, {"a", "b"}} {
		block := make([]rowblock.Row, 10)
		for i := range block {
			block[i] = rowblock.Row{Time: int64(b*10 + i), Cols: map[string]rowblock.Value{
				"s": rowblock.StringValue(pool[i%3%2]),
				"v": rowblock.Int64Value(int64(i)),
			}}
		}
		if err := tbl.AddRows(block, 1); err != nil {
			t.Fatal(err)
		}
		if err := tbl.SealActive(); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, block...)
	}
	q := &Query{Table: "k", From: 0, To: 1 << 40, GroupBy: []string{"s"},
		Aggregations: []Aggregation{{Op: AggCount}, {Op: AggSum, Column: "v"}}}
	got, err := executeOn(1, tbl, q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Reference(rows, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows(q), want.Rows(q)) {
		t.Errorf("got %+v\nwant %+v", got.Rows(q), want.Rows(q))
	}
}

// TestRenumberedTuplesAcrossBlocks is two blocks with the same dictionaries
// and the same number of distinct pairs, past denseGroups, whose pairs first
// show in a different order: a tuple → group table carried from the first
// block to the second would put rows in the wrong group, because renumbered
// tuple IDs mean what they mean in one block only.
func TestRenumberedTuplesAcrossBlocks(t *testing.T) {
	var rows []rowblock.Row
	tbl := table.New("k", table.Options{})
	for b := 0; b < 2; b++ {
		var block []rowblock.Row
		add := func(s1, s2, n int) {
			for ; n > 0; n-- {
				block = append(block, rowblock.Row{Time: int64(len(rows) + len(block)), Cols: map[string]rowblock.Value{
					"s1": rowblock.StringValue(fmt.Sprintf("a%03d", s1)),
					"s2": rowblock.StringValue(fmt.Sprintf("b%03d", s2)),
					"s3": rowblock.StringValue(fmt.Sprintf("c%d", s1%3)),
					"v":  rowblock.Int64Value(int64(len(block))),
				}})
			}
		}
		for i := 0; i < 300; i++ { // the same dictionaries, in the same order
			add(i, i, 1)
		}
		if b == 0 {
			add(0, 1, 2)
			add(1, 0, 3)
		} else {
			add(1, 0, 1)
			add(0, 1, 4)
		}
		if err := tbl.AddRows(block, 1); err != nil {
			t.Fatal(err)
		}
		if err := tbl.SealActive(); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, block...)
	}
	for _, groupBy := range [][]string{{"s1", "s2"}, {"s1", "s3", "s2"}} {
		q := &Query{Table: "k", From: 0, To: 1 << 40, GroupBy: groupBy,
			Aggregations: []Aggregation{{Op: AggCount}, {Op: AggSum, Column: "v"}}}
		want, err := Reference(rows, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			got, err := executeOn(workers, tbl, q, ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Rows(q), want.Rows(q)) {
				t.Errorf("group by %v, %d workers: differs from the reference", groupBy, workers)
			}
		}
	}
}

// TestGroupByWideTuples drives the tuple fold past denseGroups, where the
// IDs stop being positional arithmetic and are renumbered to the pairs that
// occur: two 300-entry dictionaries (90,000 tuples) alone, then widened by a
// narrow integer, a spread-out one and a time bucket, against the reference.
func TestGroupByWideTuples(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var rows []rowblock.Row
	tbl := table.New("k", table.Options{})
	for b := 0; b < 2; b++ {
		block := make([]rowblock.Row, 900)
		for i := range block {
			block[i] = rowblock.Row{Time: int64(b*900+i) - 500, Cols: map[string]rowblock.Value{
				"s1":   rowblock.StringValue(fmt.Sprintf("a%d", rng.Intn(300))),
				"s2":   rowblock.StringValue(fmt.Sprintf("b%d", rng.Intn(300))),
				"n":    rowblock.Int64Value(int64(rng.Intn(4))),
				"wide": rowblock.Int64Value(int64(rng.Intn(3)) << 40),
			}}
		}
		if err := tbl.AddRows(block, 1); err != nil {
			t.Fatal(err)
		}
		if err := tbl.SealActive(); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, block...)
	}
	for _, q := range []*Query{
		{GroupBy: []string{"s1", "s2"}},
		{GroupBy: []string{"s1", "s2", "n"}},
		{GroupBy: []string{"wide", "s2", "s1", "n"}},
		{GroupBy: []string{"s2", "s1"}, TimeBucketSeconds: 100},
	} {
		q.Table, q.From, q.To = "k", -1<<40, 1<<40
		q.Aggregations = []Aggregation{{Op: AggCount}, {Op: AggSum, Column: "n"}, {Op: AggCountDistinct, Column: "s1"}}
		got, err := executeOn(1, tbl, q, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := Reference(rows, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Rows(q), want.Rows(q)) {
			t.Errorf("group by %v (bucket %d): %d rows, want %d, or they differ", q.GroupBy, q.TimeBucketSeconds, len(got.Rows(q)), len(want.Rows(q)))
		}
	}
}

// TestCountDistinctPastBitmap groups one block into more groups than the
// (group, dictionary ID) bitmap of a count-distinct covers, so every row
// goes to its group's set directly.
func TestCountDistinctPastBitmap(t *testing.T) {
	const numRows, numGroups, dict = 30000, 15000, 300
	if numGroups*dict <= distinctBits {
		t.Fatalf("%d groups x %d entries fit the bitmap", numGroups, dict)
	}
	rows := make([]rowblock.Row, numRows)
	for i := range rows {
		rows[i] = rowblock.Row{Time: int64(i), Cols: map[string]rowblock.Value{
			"id": rowblock.Int64Value(int64(i % numGroups)),
			"s":  rowblock.StringValue(fmt.Sprintf("a%d", i*7%dict)),
		}}
	}
	tbl := table.New("k", table.Options{})
	if err := tbl.AddRows(rows, 1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SealActive(); err != nil {
		t.Fatal(err)
	}
	q := &Query{Table: "k", From: 0, To: 1 << 40, GroupBy: []string{"id"},
		Aggregations: []Aggregation{{Op: AggCountDistinct, Column: "s"}}}
	got, err := executeOn(1, tbl, q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Reference(rows, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows(q), want.Rows(q)) {
		t.Errorf("%d rows, want %d, or they differ", len(got.Rows(q)), len(want.Rows(q)))
	}
}
