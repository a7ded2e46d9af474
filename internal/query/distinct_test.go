package query

import (
	"testing"

	"scuba/internal/rowblock"
	"scuba/internal/table"
)

func TestCountDistinct(t *testing.T) {
	tbl := fixtureTable(t) // service has 3 distinct values, latency 20
	q := &Query{Table: "events", From: 0, To: 1 << 40,
		Aggregations: []Aggregation{
			{Op: AggCountDistinct, Column: "service"},
			{Op: AggCountDistinct, Column: "latency"},
		}}
	res, err := Execute(tbl, q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows(q)
	if rows[0].Values[0] != 3 {
		t.Errorf("distinct services = %v", rows[0].Values[0])
	}
	if rows[0].Values[1] != 20 {
		t.Errorf("distinct latencies = %v", rows[0].Values[1])
	}
}

func TestCountDistinctPerGroup(t *testing.T) {
	tbl := fixtureTable(t)
	q := &Query{Table: "events", From: 0, To: 1 << 40,
		GroupBy:      []string{"service"},
		Aggregations: []Aggregation{{Op: AggCount}, {Op: AggCountDistinct, Column: "latency"}},
	}
	res, err := Execute(tbl, q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows(q) {
		// Each service sees a subset of the 20 latency values.
		if r.Values[1] < 1 || r.Values[1] > 20 {
			t.Errorf("group %v distinct = %v", r.Key, r.Values[1])
		}
	}
}

func TestCountDistinctMergeAcrossPartials(t *testing.T) {
	// Two leaves with overlapping value sets: exact distinct must dedup
	// across the merge, not add.
	mk := func(vals []string, start int64) *table.Table {
		tbl := table.New("events", table.Options{})
		rows := make([]rowblock.Row, len(vals))
		for i, v := range vals {
			rows[i] = rowblock.Row{Time: start + int64(i), Cols: map[string]rowblock.Value{
				"host": rowblock.StringValue(v),
			}}
		}
		if err := tbl.AddRows(rows, 1); err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	a := mk([]string{"h1", "h2", "h3"}, 0)
	b := mk([]string{"h2", "h3", "h4", "h5"}, 100)
	q := &Query{Table: "events", From: 0, To: 1 << 40,
		Aggregations: []Aggregation{{Op: AggCountDistinct, Column: "host"}}}
	ra, err := Execute(a, q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Execute(b, q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	merged := &Result{}
	merged.Merge(ra)
	merged.Merge(rb)
	if got := merged.Rows(q)[0].Values[0]; got != 5 {
		t.Errorf("merged distinct = %v, want 5 (h1..h5)", got)
	}
}

func TestCountDistinctSurvivesWire(t *testing.T) {
	tbl := fixtureTable(t)
	q := &Query{Table: "events", From: 0, To: 1 << 40,
		Aggregations: []Aggregation{{Op: AggCountDistinct, Column: "service"}}}
	res, err := Execute(tbl, q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	back := overWire(t, res)
	// Merging the re-imported result with a fresh overlapping partial must
	// still dedup (the set travels, not just the count).
	var st AggState
	st.ObserveDistinct("svc-nonexistent")
	st.ObserveDistinct("web") // overlaps fixture values
	back.Merge(&Result{Groups: []Group{{Aggs: []AggState{st}}}})
	got := back.Rows(q)[0].Values[0]
	if got != 4 { // web, ads, search + svc-nonexistent ("web" dedups)
		t.Errorf("distinct after wire+merge = %v, want 4", got)
	}
}

func TestCountDistinctOnMissingColumn(t *testing.T) {
	tbl := fixtureTable(t)
	q := &Query{Table: "events", From: 0, To: 1 << 40,
		Aggregations: []Aggregation{{Op: AggCountDistinct, Column: "ghost"}}}
	res, err := Execute(tbl, q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Absent column: one distinct value, the zero value.
	if got := res.Rows(q)[0].Values[0]; got != 1 {
		t.Errorf("distinct = %v", got)
	}
}

func TestCountDistinctOnSetColumnRejected(t *testing.T) {
	tbl := fixtureTable(t)
	q := &Query{Table: "events", From: 0, To: 1 << 40,
		Aggregations: []Aggregation{{Op: AggCountDistinct, Column: "tags"}}}
	if _, err := Execute(tbl, q, ExecOptions{}); err == nil {
		t.Error("count_distinct over a set column accepted")
	}
}
