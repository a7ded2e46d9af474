package query

import (
	"reflect"
	"testing"

	"scuba/internal/rowblock"
	"scuba/internal/table"
)

// partialTable builds a table whose schema evolved between blocks: block 0
// has no "region" or "errors" columns, block 1 has both, block 2 has only
// "errors". Every block has "service". This is Scuba's normal life — rows
// are schemaless and columns appear per block.
func partialTable(t *testing.T) (*table.Table, []rowblock.Row) {
	t.Helper()
	tbl := table.New("evolving", table.Options{})
	var all []rowblock.Row
	addBlock := func(base int64, mk func(i int) map[string]rowblock.Value) {
		t.Helper()
		rows := make([]rowblock.Row, 50)
		for i := range rows {
			rows[i] = rowblock.Row{Time: base + int64(i), Cols: mk(i)}
		}
		if err := tbl.AddRows(rows, 1); err != nil {
			t.Fatal(err)
		}
		if err := tbl.SealActive(); err != nil {
			t.Fatal(err)
		}
		all = append(all, rows...)
	}
	addBlock(1000, func(i int) map[string]rowblock.Value {
		return map[string]rowblock.Value{
			"service": rowblock.StringValue("web"),
		}
	})
	addBlock(2000, func(i int) map[string]rowblock.Value {
		return map[string]rowblock.Value{
			"service": rowblock.StringValue("api"),
			"region":  rowblock.StringValue([]string{"east", "west"}[i%2]),
			"errors":  rowblock.Int64Value(int64(i % 5)),
		}
	})
	addBlock(3000, func(i int) map[string]rowblock.Value {
		return map[string]rowblock.Value{
			"service": rowblock.StringValue("web"),
			"errors":  rowblock.Int64Value(int64(10 + i%5)),
		}
	})
	return tbl, all
}

// TestPartiallyAbsentColumn drives every consumer of the nil-column contract
// (filters, group keys, numeric aggregation, count-distinct) over a column
// present in some blocks and absent in others. Each answer is checked against
// the number worked out by hand and against the reference executor over the
// same rows: these queries read an absent cell as its column's own zero (a
// well-typed filter operand, a string key, a numeric aggregate), which is
// where the block scan and the row-at-a-time reading must agree.
func TestPartiallyAbsentColumn(t *testing.T) {
	tbl, tblRows := partialTable(t)
	all := int64(0)
	tests := []struct {
		name string
		q    *Query
		want func(t *testing.T, res *Result, rows []Row)
	}{
		{
			name: "filter eq on partially absent string",
			q: &Query{Table: "evolving", From: all, To: 1 << 40,
				Filters:      []Filter{{Column: "region", Op: OpEq, Str: "east"}},
				Aggregations: []Aggregation{{Op: AggCount}}},
			want: func(t *testing.T, res *Result, rows []Row) {
				// Only block 1 has region; 25 of its 50 rows are east.
				// Blocks 0 and 2 evaluate "" == "east" -> false.
				if rows[0].Values[0] != 25 {
					t.Errorf("count = %v, want 25", rows[0].Values[0])
				}
			},
		},
		{
			name: "filter zero-value matches absent blocks",
			q: &Query{Table: "evolving", From: all, To: 1 << 40,
				Filters:      []Filter{{Column: "region", Op: OpNe, Str: "east"}},
				Aggregations: []Aggregation{{Op: AggCount}}},
			want: func(t *testing.T, res *Result, rows []Row) {
				// Absent blocks: "" != "east" keeps all 100 rows; block 1
				// keeps its 25 west rows.
				if rows[0].Values[0] != 125 {
					t.Errorf("count = %v, want 125", rows[0].Values[0])
				}
			},
		},
		{
			name: "filter eq on partially absent int",
			q: &Query{Table: "evolving", From: all, To: 1 << 40,
				Filters:      []Filter{{Column: "errors", Op: OpEq, Int: 0}},
				Aggregations: []Aggregation{{Op: AggCount}}},
			want: func(t *testing.T, res *Result, rows []Row) {
				// Block 0 absent: zero matches all 50. Block 1: 10 rows with
				// errors==0. Block 2: none (values 10-14).
				if rows[0].Values[0] != 60 {
					t.Errorf("count = %v, want 60", rows[0].Values[0])
				}
			},
		},
		{
			name: "group by partially absent column",
			q: &Query{Table: "evolving", From: all, To: 1 << 40,
				GroupBy:      []string{"region"},
				Aggregations: []Aggregation{{Op: AggCount}}},
			want: func(t *testing.T, res *Result, rows []Row) {
				// Groups: "" (100 rows from blocks 0+2), east (25), west (25).
				if len(rows) != 3 {
					t.Fatalf("groups = %d, want 3", len(rows))
				}
				counts := map[string]float64{}
				for _, r := range rows {
					counts[r.Key[0]] = r.Values[0]
				}
				if counts[""] != 100 || counts["east"] != 25 || counts["west"] != 25 {
					t.Errorf("group counts = %v", counts)
				}
			},
		},
		{
			name: "aggregate partially absent numeric column",
			q: &Query{Table: "evolving", From: all, To: 1 << 40,
				Aggregations: []Aggregation{{Op: AggSum, Column: "errors"}, {Op: AggCount}}},
			want: func(t *testing.T, res *Result, rows []Row) {
				// Block 0 contributes zeros; block 1 sums 0..4 ten times
				// (100); block 2 sums 10..14 ten times (600).
				if rows[0].Values[0] != 700 {
					t.Errorf("sum = %v, want 700", rows[0].Values[0])
				}
				if rows[0].Values[1] != 150 {
					t.Errorf("count = %v, want 150", rows[0].Values[1])
				}
			},
		},
		{
			name: "count distinct over partially absent column",
			q: &Query{Table: "evolving", From: all, To: 1 << 40,
				Aggregations: []Aggregation{{Op: AggCountDistinct, Column: "region"}}},
			want: func(t *testing.T, res *Result, rows []Row) {
				// east, west, and "" from the absent blocks.
				if rows[0].Values[0] != 3 {
					t.Errorf("distinct = %v, want 3", rows[0].Values[0])
				}
			},
		},
		{
			name: "group by absent-everywhere column",
			q: &Query{Table: "evolving", From: all, To: 1 << 40,
				GroupBy:      []string{"never-present"},
				Aggregations: []Aggregation{{Op: AggCount}}},
			want: func(t *testing.T, res *Result, rows []Row) {
				if len(rows) != 1 || rows[0].Key[0] != "" || rows[0].Values[0] != 150 {
					t.Errorf("rows = %+v", rows)
				}
			},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				res, err := executeOn(workers, tbl, tc.q, ExecOptions{})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				tc.want(t, res, res.Rows(tc.q))
				ref, err := Reference(tblRows, tc.q)
				if err != nil {
					t.Fatalf("reference: %v", err)
				}
				if !reflect.DeepEqual(res.Rows(tc.q), ref.Rows(tc.q)) {
					t.Errorf("workers=%d: rows %+v, reference %+v", workers, res.Rows(tc.q), ref.Rows(tc.q))
				}
			}
		})
	}
}
