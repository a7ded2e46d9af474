package query

import (
	"reflect"
	"testing"

	"scuba/internal/rowblock"
	"scuba/internal/table"
)

// scanBlock folds one block into res: a one-block execution, zone maps
// consulted, dc the decode cache.
func scanBlock(rb Block, q *Query, res *Result, dc *DecodeCache) error {
	s := newScanner(compile(q), dc)
	defer s.release()
	err := s.scanBlock(rb)
	res.Merge(s.finish())
	return err
}

// noZones hides a block's zone maps so the executor cannot prune it: the
// embedded interface only promotes Block's methods, so the wrapper never
// satisfies the zoner assertion. Tests use it to force-scan.
type noZones struct{ Block }

// forceScan runs a query over blocks with pruning disabled.
func forceScan(t *testing.T, blocks []*rowblock.RowBlock, q *Query) (*Result, error) {
	t.Helper()
	res := &Result{}
	for _, rb := range blocks {
		if !rb.Overlaps(q.From, q.To) {
			continue
		}
		if err := scanBlock(noZones{rb}, q, res, nil); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// zoneFixture builds a table whose 4 blocks have disjoint value ranges so
// point filters prune precisely: block b holds status 100b..100b+99,
// latency 1000b..1000b+99 (float), service "svc-b", tags {"tb"}.
func zoneFixture(t *testing.T) *table.Table {
	t.Helper()
	tbl := table.New("events", table.Options{})
	for b := 0; b < 4; b++ {
		if err := tbl.AddRows(zoneFixtureRows(b), 1); err != nil {
			t.Fatal(err)
		}
		if err := tbl.SealActive(); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// zoneFixtureRows are the rows of zoneFixture's block b.
func zoneFixtureRows(b int) []rowblock.Row {
	rows := make([]rowblock.Row, 100)
	for i := range rows {
		rows[i] = rowblock.Row{
			Time: 1000 + int64(b*100+i),
			Cols: map[string]rowblock.Value{
				"status":  rowblock.Int64Value(int64(100*b + i)),
				"latency": rowblock.Float64Value(float64(1000*b + i)),
				"service": rowblock.StringValue([]string{"svc-0", "svc-1", "svc-2", "svc-3"}[b]),
				"tags":    rowblock.SetValue("t" + string(rune('0'+b))),
			},
		}
	}
	return rows
}

func TestZonePruneInt(t *testing.T) {
	tbl := zoneFixture(t)
	q := &Query{
		Table: "events", From: 0, To: 1 << 40,
		Filters:      []Filter{{Column: "status", Op: OpEq, Int: 150}},
		Aggregations: []Aggregation{{Op: AggCount}},
	}
	res, err := Execute(tbl, q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.BlocksPruned != 3 || res.BlocksScanned != 1 {
		t.Errorf("pruned %d scanned %d, want 3/1", res.BlocksPruned, res.BlocksScanned)
	}
	rows := res.Rows(q)
	if len(rows) != 1 || rows[0].Values[0] != 1 {
		t.Errorf("rows = %+v", rows)
	}

	// Range filters prune too: status > 350 excludes blocks 0-2.
	q.Filters = []Filter{{Column: "status", Op: OpGt, Int: 350}}
	res, err = Execute(tbl, q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.BlocksPruned != 3 || res.BlocksScanned != 1 {
		t.Errorf("Gt: pruned %d scanned %d", res.BlocksPruned, res.BlocksScanned)
	}
	if res.Rows(q)[0].Values[0] != 49 { // 351..399
		t.Errorf("Gt count = %v", res.Rows(q)[0].Values[0])
	}

	q.Filters = []Filter{{Column: "status", Op: OpLt, Int: 100}}
	res, err = Execute(tbl, q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.BlocksPruned != 3 || res.BlocksScanned != 1 {
		t.Errorf("Lt: pruned %d scanned %d", res.BlocksPruned, res.BlocksScanned)
	}
}

func TestZonePruneFloat(t *testing.T) {
	tbl := zoneFixture(t)
	q := &Query{
		Table: "events", From: 0, To: 1 << 40,
		Filters:      []Filter{{Column: "latency", Op: OpGe, Float: 3000}},
		Aggregations: []Aggregation{{Op: AggCount}},
	}
	res, err := Execute(tbl, q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.BlocksPruned != 3 || res.BlocksScanned != 1 {
		t.Errorf("pruned %d scanned %d", res.BlocksPruned, res.BlocksScanned)
	}
	if res.Rows(q)[0].Values[0] != 100 {
		t.Errorf("count = %v", res.Rows(q)[0].Values[0])
	}
}

func TestZonePruneString(t *testing.T) {
	tbl := zoneFixture(t)
	q := &Query{
		Table: "events", From: 0, To: 1 << 40,
		Filters:      []Filter{{Column: "service", Op: OpEq, Str: "svc-2"}},
		Aggregations: []Aggregation{{Op: AggCount}},
	}
	res, err := Execute(tbl, q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Bloom filters may admit false positives, so pruned is at most 3; the
	// result must be exact regardless.
	if res.BlocksPruned+res.BlocksScanned != 4 || res.BlocksScanned < 1 {
		t.Errorf("pruned %d scanned %d", res.BlocksPruned, res.BlocksScanned)
	}
	if res.Rows(q)[0].Values[0] != 100 {
		t.Errorf("count = %v", res.Rows(q)[0].Values[0])
	}

	q.Filters = []Filter{{Column: "tags", Op: OpContains, Str: "t3"}}
	res, err = Execute(tbl, q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.BlocksPruned+res.BlocksScanned != 4 || res.BlocksScanned < 1 {
		t.Errorf("contains: pruned %d scanned %d", res.BlocksPruned, res.BlocksScanned)
	}
	if res.Rows(q)[0].Values[0] != 100 {
		t.Errorf("contains count = %v", res.Rows(q)[0].Values[0])
	}
}

// TestZonePruneAgreesWithScan compares the pruned executor against a forced
// full scan across a spread of queries.
func TestZonePruneAgreesWithScan(t *testing.T) {
	tbl := zoneFixture(t)
	blocks := tbl.Blocks()
	queries := []*Query{
		{Table: "events", From: 0, To: 1 << 40, Filters: []Filter{{Column: "status", Op: OpEq, Int: 42}},
			Aggregations: []Aggregation{{Op: AggCount}, {Op: AggSum, Column: "latency"}}},
		{Table: "events", From: 0, To: 1 << 40, Filters: []Filter{{Column: "status", Op: OpNe, Int: 0}},
			Aggregations: []Aggregation{{Op: AggCount}}},
		{Table: "events", From: 0, To: 1 << 40, Filters: []Filter{{Column: "status", Op: OpLe, Int: -1}},
			Aggregations: []Aggregation{{Op: AggCount}}},
		{Table: "events", From: 0, To: 1 << 40, Filters: []Filter{{Column: "latency", Op: OpLt, Float: 500}},
			Aggregations: []Aggregation{{Op: AggAvg, Column: "status"}}, GroupBy: []string{"service"}},
		{Table: "events", From: 0, To: 1 << 40, Filters: []Filter{{Column: "service", Op: OpEq, Str: "nope"}},
			Aggregations: []Aggregation{{Op: AggCount}}},
		{Table: "events", From: 0, To: 1 << 40, Filters: []Filter{{Column: "tags", Op: OpContains, Str: "t1"}},
			Aggregations: []Aggregation{{Op: AggCountDistinct, Column: "service"}}},
		{Table: "events", From: 0, To: 1 << 40,
			Filters:      []Filter{{Column: "status", Op: OpGe, Int: 100}, {Column: "latency", Op: OpLt, Float: 2000}},
			Aggregations: []Aggregation{{Op: AggMin, Column: "status"}, {Op: AggMax, Column: "status"}}},
		{Table: "events", From: 0, To: 1 << 40, Filters: []Filter{{Column: "absent", Op: OpEq, Int: 7}},
			Aggregations: []Aggregation{{Op: AggCount}}},
	}
	for qi, q := range queries {
		pruned, err := Execute(tbl, q, ExecOptions{})
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		scanned, err := forceScan(t, blocks, q)
		if err != nil {
			t.Fatalf("query %d force scan: %v", qi, err)
		}
		if !reflect.DeepEqual(pruned.Rows(q), scanned.Rows(q)) {
			t.Errorf("query %d: pruned %+v != scanned %+v", qi, pruned.Rows(q), scanned.Rows(q))
		}
	}
}

// TestZonePruneNeverHidesTypeErrors pins the error-parity rule: a query
// whose earlier filter would type-error must not be silently pruned by a
// later filter's zone map.
func TestZonePruneNeverHidesTypeErrors(t *testing.T) {
	tbl := zoneFixture(t)
	q := &Query{
		Table: "events", From: 0, To: 1 << 40,
		// Filter 1 errors (contains on an int column); filter 2's zone
		// excludes every block. The scan must report the error.
		Filters: []Filter{
			{Column: "status", Op: OpContains, Str: "x"},
			{Column: "status", Op: OpEq, Int: -1},
		},
		Aggregations: []Aggregation{{Op: AggCount}},
	}
	if _, err := Execute(tbl, q, ExecOptions{}); err == nil {
		t.Fatalf("type error hidden by zone pruning")
	}

	// Same shape but the erroring filter comes after the excluding one: the
	// serial scan would zero the mask on filter 1 and never reach filter 2,
	// so pruning (which skips the error too) agrees with scanning.
	q.Filters = []Filter{
		{Column: "status", Op: OpEq, Int: -1},
		{Column: "status", Op: OpContains, Str: "x"},
	}
	res, err := Execute(tbl, q, ExecOptions{})
	if err != nil {
		t.Fatalf("prunable-first query errored: %v", err)
	}
	scanned, err := forceScan(t, tbl.Blocks(), q)
	if err != nil {
		t.Fatalf("force scan errored: %v", err)
	}
	if !reflect.DeepEqual(res.Rows(q), scanned.Rows(q)) {
		t.Errorf("pruned and scanned disagree")
	}
}

// TestParallelMatchesSerial runs the same queries at several pool sizes and
// demands identical results (merge is associative/commutative; order-free) —
// identical to the reference executor's over the same rows, so the pool
// sizes cannot agree on a wrong answer.
func TestParallelMatchesSerial(t *testing.T) {
	tbl := zoneFixture(t)
	var rows []rowblock.Row
	for b := 0; b < 4; b++ {
		rows = append(rows, zoneFixtureRows(b)...)
	}
	queries := []*Query{
		{Table: "events", From: 0, To: 1 << 40, Aggregations: []Aggregation{{Op: AggCount}, {Op: AggSum, Column: "status"}}},
		{Table: "events", From: 0, To: 1 << 40, GroupBy: []string{"service"},
			Aggregations: []Aggregation{{Op: AggAvg, Column: "latency"}, {Op: AggP50, Column: "latency"}}},
		{Table: "events", From: 1150, To: 1250, Aggregations: []Aggregation{{Op: AggCountDistinct, Column: "service"}}},
		{Table: "events", From: 0, To: 1 << 40, TimeBucketSeconds: 100,
			Aggregations: []Aggregation{{Op: AggMax, Column: "status"}}},
	}
	for qi, q := range queries {
		serial, err := executeOn(1, tbl, q, ExecOptions{})
		if err != nil {
			t.Fatalf("query %d serial: %v", qi, err)
		}
		ref, err := Reference(rows, q)
		if err != nil {
			t.Fatalf("query %d reference: %v", qi, err)
		}
		if !reflect.DeepEqual(serial.Rows(q), ref.Rows(q)) {
			t.Errorf("query %d serial: rows %+v, reference %+v", qi, serial.Rows(q), ref.Rows(q))
		}
		for _, workers := range []int{2, 4, 8} {
			par, err := executeOn(workers, tbl, q, ExecOptions{})
			if err != nil {
				t.Fatalf("query %d workers=%d: %v", qi, workers, err)
			}
			if !reflect.DeepEqual(serial.Rows(q), par.Rows(q)) {
				t.Errorf("query %d workers=%d: results diverge", qi, workers)
			}
			if serial.RowsScanned != par.RowsScanned || serial.BlocksScanned != par.BlocksScanned ||
				serial.BlocksPruned != par.BlocksPruned || serial.BlocksSkipped != par.BlocksSkipped {
				t.Errorf("query %d workers=%d: accounting diverges (%d/%d/%d/%d vs %d/%d/%d/%d)",
					qi, workers,
					serial.RowsScanned, serial.BlocksScanned, serial.BlocksPruned, serial.BlocksSkipped,
					par.RowsScanned, par.BlocksScanned, par.BlocksPruned, par.BlocksSkipped)
			}
		}
	}
}

// TestParallelErrorPropagates pins that a worker error reaches the caller.
func TestParallelErrorPropagates(t *testing.T) {
	tbl := zoneFixture(t)
	q := &Query{
		Table: "events", From: 0, To: 1 << 40,
		// Contains on an int column errors in every block; no zone prunes it.
		Filters:      []Filter{{Column: "status", Op: OpContains, Str: "x"}},
		Aggregations: []Aggregation{{Op: AggCount}},
	}
	if _, err := executeOn(4, tbl, q, ExecOptions{}); err == nil {
		t.Fatalf("worker error swallowed")
	}
}

// TestBlocksSkippedAccounting pins skipped = total - scanned - pruned.
func TestBlocksSkippedAccounting(t *testing.T) {
	tbl := zoneFixture(t)
	// Time range hits blocks 1-2 only; the status filter prunes block 2.
	q := &Query{
		Table: "events", From: 1100, To: 1299,
		Filters:      []Filter{{Column: "status", Op: OpLt, Int: 200}},
		Aggregations: []Aggregation{{Op: AggCount}},
	}
	res, err := Execute(tbl, q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.BlocksScanned != 1 || res.BlocksPruned != 1 || res.BlocksSkipped != 2 {
		t.Errorf("scanned/pruned/skipped = %d/%d/%d, want 1/1/2",
			res.BlocksScanned, res.BlocksPruned, res.BlocksSkipped)
	}
}
