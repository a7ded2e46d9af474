package query

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"scuba/internal/rowblock"
	"scuba/internal/table"
)

// executeOn is Execute with a scan pool of the given size: the pool is the
// process's GOMAXPROCS, which the tests here can steer because none of them
// is t.Parallel.
func executeOn(workers int, tbl *table.Table, q *Query, opts ExecOptions) (*Result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	return Execute(tbl, q, opts)
}

// fixtureTable builds a table with 3 blocks x 100 rows of service logs.
// Rows have time = 1000+i, service in {web,ads,search}, latency = i%20,
// cpu = i/10.0, tags = {prod, tierN}.
func fixtureTable(t *testing.T) *table.Table {
	t.Helper()
	tbl := table.New("events", table.Options{})
	for b := 0; b < 3; b++ {
		rows := make([]rowblock.Row, 100)
		for i := range rows {
			abs := b*100 + i
			rows[i] = rowblock.Row{
				Time: 1000 + int64(abs),
				Cols: map[string]rowblock.Value{
					"service": rowblock.StringValue([]string{"web", "ads", "search"}[abs%3]),
					"latency": rowblock.Int64Value(int64(abs % 20)),
					"cpu":     rowblock.Float64Value(float64(abs) / 10),
					"tags":    rowblock.SetValue("prod", fmt.Sprintf("tier%d", abs%2)),
				},
			}
		}
		if err := tbl.AddRows(rows, 1); err != nil {
			t.Fatal(err)
		}
		if err := tbl.SealActive(); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestValidate(t *testing.T) {
	good := &Query{Table: "t", From: 0, To: 10, Aggregations: []Aggregation{{Op: AggCount}}}
	if err := good.Validate(); err != nil {
		t.Errorf("good query rejected: %v", err)
	}
	bad := []*Query{
		{From: 0, To: 10, Aggregations: []Aggregation{{Op: AggCount}}},                          // no table
		{Table: "t", From: 10, To: 0, Aggregations: []Aggregation{{Op: AggCount}}},              // empty range
		{Table: "t", From: 0, To: 10},                                                           // no aggs
		{Table: "t", From: 0, To: 10, Aggregations: []Aggregation{{Op: AggSum}}},                // sum without column
		{Table: "t", From: 0, To: 10, Aggregations: []Aggregation{{Op: AggCount, Column: "x"}}}, // count with column
		{Table: "t", From: 0, To: 10, Aggregations: []Aggregation{{Op: AggCount}}, GroupBy: []string{""}},
		{Table: "t", From: 0, To: 10, Aggregations: []Aggregation{{Op: AggCount}}, Limit: -1},
	}
	for i, q := range bad {
		if err := q.Validate(); err == nil {
			t.Errorf("bad query %d accepted", i)
		}
	}
}

func TestCountAll(t *testing.T) {
	tbl := fixtureTable(t)
	q := &Query{Table: "events", From: 0, To: 1 << 40, Aggregations: []Aggregation{{Op: AggCount}}}
	res, err := Execute(tbl, q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows(q)
	if len(rows) != 1 {
		t.Fatalf("groups = %d", len(rows))
	}
	if rows[0].Values[0] != 300 {
		t.Errorf("count = %v", rows[0].Values[0])
	}
	if res.BlocksScanned != 3 || res.BlocksSkipped != 0 {
		t.Errorf("blocks: scanned %d skipped %d", res.BlocksScanned, res.BlocksSkipped)
	}
}

func TestTimePruning(t *testing.T) {
	tbl := fixtureTable(t)
	// Only the middle block [1100, 1199] overlaps.
	q := &Query{Table: "events", From: 1150, To: 1160, Aggregations: []Aggregation{{Op: AggCount}}}
	res, err := Execute(tbl, q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.BlocksScanned != 1 || res.BlocksSkipped != 2 {
		t.Errorf("blocks: scanned %d skipped %d", res.BlocksScanned, res.BlocksSkipped)
	}
	rows := res.Rows(q)
	if rows[0].Values[0] != 11 { // 1150..1160 inclusive
		t.Errorf("count = %v", rows[0].Values[0])
	}
}

func TestGroupByString(t *testing.T) {
	tbl := fixtureTable(t)
	q := &Query{
		Table: "events", From: 0, To: 1 << 40,
		Aggregations: []Aggregation{{Op: AggCount}, {Op: AggAvg, Column: "latency"}},
		GroupBy:      []string{"service"},
	}
	res, err := Execute(tbl, q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows(q)
	if len(rows) != 3 {
		t.Fatalf("groups = %d", len(rows))
	}
	total := 0.0
	for _, r := range rows {
		total += r.Values[0]
	}
	if total != 300 {
		t.Errorf("total count = %v", total)
	}
}

func TestFilters(t *testing.T) {
	tbl := fixtureTable(t)
	cases := []struct {
		name   string
		filter Filter
		want   float64
	}{
		{"string eq", Filter{Column: "service", Op: OpEq, Str: "web"}, 100},
		{"string ne", Filter{Column: "service", Op: OpNe, Str: "web"}, 200},
		{"int lt", Filter{Column: "latency", Op: OpLt, Int: 10}, 150},
		{"int ge", Filter{Column: "latency", Op: OpGe, Int: 10}, 150},
		{"float gt", Filter{Column: "cpu", Op: OpGt, Float: 14.95}, 150},
		{"set contains", Filter{Column: "tags", Op: OpContains, Str: "tier0"}, 150},
		{"set contains missing", Filter{Column: "tags", Op: OpContains, Str: "nope"}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			q := &Query{Table: "events", From: 0, To: 1 << 40,
				Filters: []Filter{c.filter}, Aggregations: []Aggregation{{Op: AggCount}}}
			res, err := Execute(tbl, q, ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			rows := res.Rows(q)
			got := 0.0
			if len(rows) > 0 {
				got = rows[0].Values[0]
			}
			if got != c.want {
				t.Errorf("count = %v, want %v", got, c.want)
			}
		})
	}
}

func TestFilterConjunction(t *testing.T) {
	tbl := fixtureTable(t)
	q := &Query{Table: "events", From: 0, To: 1 << 40,
		Filters: []Filter{
			{Column: "service", Op: OpEq, Str: "web"},
			{Column: "latency", Op: OpLt, Int: 6},
		},
		Aggregations: []Aggregation{{Op: AggCount}},
	}
	res, err := Execute(tbl, q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// service=web means abs%3==0; latency<6 means abs%20 in {0..5}.
	want := 0.0
	for abs := 0; abs < 300; abs++ {
		if abs%3 == 0 && abs%20 < 6 {
			want++
		}
	}
	rows := res.Rows(q)
	if rows[0].Values[0] != want {
		t.Errorf("count = %v, want %v", rows[0].Values[0], want)
	}
}

func TestAggregators(t *testing.T) {
	tbl := fixtureTable(t)
	q := &Query{Table: "events", From: 0, To: 1 << 40,
		Aggregations: []Aggregation{
			{Op: AggSum, Column: "latency"},
			{Op: AggMin, Column: "latency"},
			{Op: AggMax, Column: "latency"},
			{Op: AggAvg, Column: "cpu"},
		}}
	res, err := Execute(tbl, q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows(q)
	var wantSum float64
	for abs := 0; abs < 300; abs++ {
		wantSum += float64(abs % 20)
	}
	v := rows[0].Values
	if v[0] != wantSum {
		t.Errorf("sum = %v, want %v", v[0], wantSum)
	}
	if v[1] != 0 || v[2] != 19 {
		t.Errorf("min/max = %v/%v", v[1], v[2])
	}
	wantAvg := (0.0 + 29.9) / 2
	if math.Abs(v[3]-wantAvg) > 0.01 {
		t.Errorf("avg = %v, want %v", v[3], wantAvg)
	}
}

func TestPercentiles(t *testing.T) {
	tbl := table.New("lat", table.Options{})
	rows := make([]rowblock.Row, 1000)
	for i := range rows {
		rows[i] = rowblock.Row{Time: int64(i),
			Cols: map[string]rowblock.Value{"ms": rowblock.Int64Value(int64(i))}}
	}
	if err := tbl.AddRows(rows, 1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SealActive(); err != nil {
		t.Fatal(err)
	}
	q := &Query{Table: "lat", From: 0, To: 1 << 40,
		Aggregations: []Aggregation{{Op: AggP50, Column: "ms"}, {Op: AggP99, Column: "ms"}}}
	res, err := Execute(tbl, q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v := res.Rows(q)[0].Values
	// Log-scale histogram: answers are approximate, within a factor of 2.
	if v[0] < 250 || v[0] > 1000 {
		t.Errorf("p50 = %v, want ~500", v[0])
	}
	if v[1] < 495 || v[1] > 2000 {
		t.Errorf("p99 = %v, want ~990", v[1])
	}
	if v[0] > v[1] {
		t.Errorf("p50 %v > p99 %v", v[0], v[1])
	}
}

func TestMergePartialResults(t *testing.T) {
	tbl := fixtureTable(t)
	full := &Query{Table: "events", From: 0, To: 1 << 40,
		Aggregations: []Aggregation{{Op: AggCount}, {Op: AggSum, Column: "latency"}, {Op: AggP90, Column: "latency"}},
		GroupBy:      []string{"service"}}

	// Whole-table result versus merging three per-block partials.
	want, err := Execute(tbl, full, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	merged := &Result{}
	for _, rb := range tbl.Blocks() {
		part := &Result{}
		if err := scanBlock(rb, full, part, nil); err != nil {
			t.Fatal(err)
		}
		merged.Merge(part)
	}
	wr, mr := want.Rows(full), merged.Rows(full)
	if len(wr) != len(mr) {
		t.Fatalf("group counts differ: %d vs %d", len(wr), len(mr))
	}
	for i := range wr {
		if strings.Join(wr[i].Key, ",") != strings.Join(mr[i].Key, ",") {
			t.Errorf("row %d key %v vs %v", i, wr[i].Key, mr[i].Key)
		}
		for j := range wr[i].Values {
			if math.Abs(wr[i].Values[j]-mr[i].Values[j]) > 1e-9 {
				t.Errorf("row %d value %d: %v vs %v", i, j, wr[i].Values[j], mr[i].Values[j])
			}
		}
	}
	if merged.RowsScanned != want.RowsScanned {
		t.Errorf("rows scanned %d vs %d", merged.RowsScanned, want.RowsScanned)
	}
}

func TestMissingColumnSemantics(t *testing.T) {
	tbl := fixtureTable(t)
	// Filtering on a column no block has: zero-value semantics.
	q := &Query{Table: "events", From: 0, To: 1 << 40,
		Filters:      []Filter{{Column: "ghost", Op: OpEq, Str: "x"}},
		Aggregations: []Aggregation{{Op: AggCount}}}
	res, err := Execute(tbl, q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 0 {
		t.Errorf("ghost=x matched %d groups", len(res.Groups))
	}
	// ghost != x matches everything ("" != "x").
	q.Filters[0].Op = OpNe
	res, err = Execute(tbl, q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rows := res.Rows(q); len(rows) == 0 || rows[0].Values[0] != 300 {
		t.Errorf("ghost!=x rows = %v", rows)
	}
	// Group by a missing column: single empty-string group.
	q2 := &Query{Table: "events", From: 0, To: 1 << 40,
		Aggregations: []Aggregation{{Op: AggCount}}, GroupBy: []string{"ghost"}}
	res, err = Execute(tbl, q2, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows(q2)
	if len(rows) != 1 || rows[0].Key[0] != "" {
		t.Errorf("rows = %v", rows)
	}
}

func TestGroupByIntAndLimit(t *testing.T) {
	tbl := fixtureTable(t)
	q := &Query{Table: "events", From: 0, To: 1 << 40,
		Aggregations: []Aggregation{{Op: AggCount}},
		GroupBy:      []string{"latency"},
		Limit:        5,
	}
	res, err := Execute(tbl, q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows(q)
	if len(rows) != 5 {
		t.Errorf("limit ignored: %d rows", len(rows))
	}
	// All 20 latency values appear 15 times each; tie-break is by key.
	if rows[0].Values[0] != 15 {
		t.Errorf("top count = %v", rows[0].Values[0])
	}
}

func TestTypeErrors(t *testing.T) {
	tbl := fixtureTable(t)
	bad := []*Query{
		{Table: "events", From: 0, To: 1 << 40,
			Filters:      []Filter{{Column: "latency", Op: OpContains, Str: "x"}},
			Aggregations: []Aggregation{{Op: AggCount}}},
		{Table: "events", From: 0, To: 1 << 40,
			Filters:      []Filter{{Column: "tags", Op: OpEq, Str: "x"}},
			Aggregations: []Aggregation{{Op: AggCount}}},
		{Table: "events", From: 0, To: 1 << 40,
			Aggregations: []Aggregation{{Op: AggSum, Column: "service"}}},
		{Table: "events", From: 0, To: 1 << 40,
			Aggregations: []Aggregation{{Op: AggCount}}, GroupBy: []string{"tags"}},
	}
	for i, q := range bad {
		if _, err := Execute(tbl, q, ExecOptions{}); err == nil {
			t.Errorf("bad query %d succeeded", i)
		}
	}
}

func TestCoverage(t *testing.T) {
	r := &Result{}
	if r.Coverage() != 1 {
		t.Errorf("empty coverage = %v", r.Coverage())
	}
	r.LeavesTotal = 8
	r.LeavesAnswered = 7
	if c := r.Coverage(); math.Abs(c-0.875) > 1e-9 {
		t.Errorf("coverage = %v", c)
	}
}

func TestQueryString(t *testing.T) {
	q := &Query{Table: "events", From: 1, To: 2,
		Filters:      []Filter{{Column: "service", Op: OpEq, Str: "web"}},
		Aggregations: []Aggregation{{Op: AggCount}, {Op: AggAvg, Column: "lat"}},
		GroupBy:      []string{"service"}, Limit: 10}
	s := q.String()
	for _, want := range []string{"count", "avg(lat)", "events", "GROUP BY service", "LIMIT 10"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestFormat(t *testing.T) {
	q := &Query{Table: "t", GroupBy: []string{"svc"}, Aggregations: []Aggregation{{Op: AggCount}}}
	out := Format(q, []Row{{Key: []string{"web"}, Values: []float64{42}}})
	if !strings.Contains(out, "web") || !strings.Contains(out, "42.000") {
		t.Errorf("Format = %q", out)
	}
}
