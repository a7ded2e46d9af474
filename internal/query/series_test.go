package query

import (
	"strconv"
	"strings"
	"testing"

	"scuba/internal/rowblock"
	"scuba/internal/table"
)

func TestTimeBucketSeries(t *testing.T) {
	tbl := fixtureTable(t) // times 1000..1299, one row per second
	q := &Query{Table: "events", From: 0, To: 1 << 40,
		TimeBucketSeconds: 100,
		Aggregations:      []Aggregation{{Op: AggCount}},
	}
	res, err := Execute(tbl, q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows(q)
	if len(rows) != 3 {
		t.Fatalf("buckets = %d: %v", len(rows), rows)
	}
	wantBuckets := []string{"1000", "1100", "1200"}
	for i, r := range rows {
		if r.Key[0] != wantBuckets[i] {
			t.Errorf("bucket %d = %q, want %q", i, r.Key[0], wantBuckets[i])
		}
		if r.Values[0] != 100 {
			t.Errorf("bucket %d count = %v", i, r.Values[0])
		}
	}
}

func TestTimeBucketWithGroupBy(t *testing.T) {
	tbl := fixtureTable(t)
	q := &Query{Table: "events", From: 0, To: 1 << 40,
		TimeBucketSeconds: 150,
		GroupBy:           []string{"service"},
		Aggregations:      []Aggregation{{Op: AggCount}},
	}
	res, err := Execute(tbl, q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows(q)
	// 2 buckets (900, 1050, 1200 starts -> times 1000-1299 hit buckets
	// 900, 1050, 1200) x 3 services.
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Buckets come back in ascending order; within a bucket, groups by
	// descending count then key.
	prevBucket := int64(-1 << 62)
	total := 0.0
	for _, r := range rows {
		b, err := strconv.ParseInt(r.Key[0], 10, 64)
		if err != nil {
			t.Fatalf("bucket key %q", r.Key[0])
		}
		if b < prevBucket {
			t.Fatal("buckets out of order")
		}
		prevBucket = b
		if len(r.Key) != 2 {
			t.Fatalf("key = %v", r.Key)
		}
		total += r.Values[0]
	}
	if total != 300 {
		t.Errorf("total = %v", total)
	}
}

func TestTimeBucketMergesAcrossBlocks(t *testing.T) {
	// A bucket spanning two row blocks must merge into one output row.
	tbl := table.New("events", table.Options{})
	for b := 0; b < 2; b++ {
		rows := make([]rowblock.Row, 50)
		for i := range rows {
			rows[i] = rowblock.Row{Time: int64(b*50 + i)} // 0..99 across blocks
		}
		if err := tbl.AddRows(rows, 1); err != nil {
			t.Fatal(err)
		}
		if err := tbl.SealActive(); err != nil {
			t.Fatal(err)
		}
	}
	q := &Query{Table: "events", From: 0, To: 1 << 40,
		TimeBucketSeconds: 100,
		Aggregations:      []Aggregation{{Op: AggCount}},
	}
	res, err := Execute(tbl, q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows(q)
	if len(rows) != 1 || rows[0].Values[0] != 100 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestBucketStartNegativeTimes(t *testing.T) {
	cases := []struct{ t, bucket, want int64 }{
		{0, 60, 0},
		{59, 60, 0},
		{60, 60, 60},
		{-1, 60, -60},
		{-60, 60, -60},
		{-61, 60, -120},
	}
	for _, c := range cases {
		if got := bucketStart(c.t, c.bucket); got != c.want {
			t.Errorf("bucketStart(%d, %d) = %d, want %d", c.t, c.bucket, got, c.want)
		}
	}
}

func TestOrderByAggregation(t *testing.T) {
	tbl := fixtureTable(t)
	q := &Query{Table: "events", From: 0, To: 1 << 40,
		GroupBy:      []string{"service"},
		Aggregations: []Aggregation{{Op: AggCount}, {Op: AggSum, Column: "latency"}},
		OrderBy:      &Order{Agg: 1, Asc: true},
	}
	res, err := Execute(tbl, q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows(q)
	prev := -1.0
	for _, r := range rows {
		if r.Values[1] < prev {
			t.Fatalf("order-by asc violated: %v", rows)
		}
		prev = r.Values[1]
	}
	// Descending too.
	q.OrderBy.Asc = false
	rows = res.Rows(q)
	prev = 1 << 62
	for _, r := range rows {
		if r.Values[1] > prev {
			t.Fatalf("order-by desc violated: %v", rows)
		}
		prev = r.Values[1]
	}
}

func TestOrderByValidation(t *testing.T) {
	q := &Query{Table: "t", From: 0, To: 1,
		Aggregations: []Aggregation{{Op: AggCount}},
		OrderBy:      &Order{Agg: 3},
	}
	if err := q.Validate(); err == nil {
		t.Error("out-of-range order-by accepted")
	}
	q2 := &Query{Table: "t", From: 0, To: 1,
		Aggregations:      []Aggregation{{Op: AggCount}},
		TimeBucketSeconds: -5,
	}
	if err := q2.Validate(); err == nil {
		t.Error("negative bucket accepted")
	}
}

func TestSeriesFormatHeader(t *testing.T) {
	q := &Query{Table: "t", TimeBucketSeconds: 60,
		Aggregations: []Aggregation{{Op: AggCount}}}
	out := Format(q, []Row{{Key: []string{"1700000000"}, Values: []float64{5}}})
	if !strings.Contains(out, "time_bucket") {
		t.Errorf("Format = %q", out)
	}
}

func TestSeriesSurvivesWireRoundTrip(t *testing.T) {
	tbl := fixtureTable(t)
	q := &Query{Table: "events", From: 0, To: 1 << 40,
		TimeBucketSeconds: 100,
		Aggregations:      []Aggregation{{Op: AggCount}}}
	res, err := Execute(tbl, q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	back := overWire(t, res)
	a, b := res.Rows(q), back.Rows(q)
	if len(a) != len(b) {
		t.Fatalf("rows %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key[0] != b[i].Key[0] || a[i].Values[0] != b[i].Values[0] {
			t.Errorf("row %d differs", i)
		}
	}
}
