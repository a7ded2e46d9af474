package wire

import (
	"reflect"
	"slices"
	"testing"

	"scuba/internal/aggregator"
	"scuba/internal/obs"
	"scuba/internal/query"
	"scuba/internal/rowblock"
	"scuba/internal/shard"
	"scuba/internal/workload"
)

// TestOneQueryPath answers a generated query mix through every entry a
// query can come in by — the leaf's three methods, the wire client's three,
// an in-process aggregator and an aggregator server, each whole-table and
// shard-scoped — over one leaf holding the same rows twice: as the logical
// table (sealed blocks plus an unsealed tail) and as a four-shard copy.
// Every entry's rows must equal the reference executor's over the raw rows,
// its groups must come back in key order with no key twice, and the work
// counters must agree among the entries that read the same blocks.
func TestOneQueryPath(t *testing.T) {
	const (
		table     = "service_logs"
		numShards = 4
		numQuery  = 240
	)
	s, c, l := newServer(t, 0)
	gen := workload.ServiceLogs(11, 1_700_000_000)
	from := gen.Now()
	var all []rowblock.Row
	for chunk := 0; chunk < 7; chunk++ {
		rows := gen.NextBatch(1500)
		all = append(all, rows...)
		if err := l.AddRows(table, rows); err != nil {
			t.Fatal(err)
		}
		perShard := make([][]rowblock.Row, numShards)
		for i, r := range rows {
			perShard[i%numShards] = append(perShard[i%numShards], r)
		}
		for sh, rows := range perShard {
			if err := l.AddRows(shard.PhysicalTable(table, sh), rows); err != nil {
				t.Fatal(err)
			}
		}
		if chunk < 6 { // the last chunk stays the unsealed tail
			if err := l.SealAll(); err != nil {
				t.Fatal(err)
			}
		}
	}
	shards := []int{0, 1, 2, 3}

	agg := aggregator.New([]aggregator.LeafTarget{l})
	shardAgg := aggregator.New([]aggregator.LeafTarget{l})
	ShardRouting(shardAgg, []string{"leaf0"}, nil, 1, numShards)
	aggSrv, err := NewAggServer([]string{s.Addr()}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer aggSrv.Close()
	shardSrv, err := NewAggServer([]string{s.Addr()}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shardSrv.Close()
	ShardRouting(shardSrv.Aggregator(), []string{s.Addr()}, nil, 1, numShards)
	viaAgg, viaShardAgg := Dial(aggSrv.Addr()), Dial(shardSrv.Addr())
	defer viaAgg.Close()
	defer viaShardAgg.Close()

	tc := obs.TraceContext{TraceID: obs.RandomID(), SpanID: obs.RandomID()}
	// reported runs an entry that returns the execution report and checks
	// the report against the result it came with.
	reported := func(run func(*query.Query) (*query.Result, *obs.ExecStats, error), served int) func(*query.Query) (*query.Result, error) {
		return func(q *query.Query) (*query.Result, error) {
			res, exec, err := run(q)
			if err != nil {
				return nil, err
			}
			if exec == nil || exec.SpanID != tc.SpanID || exec.Table != table || exec.ShardsServed != served ||
				exec.RowsScanned != res.RowsScanned || exec.BlocksScanned != res.BlocksScanned {
				t.Errorf("%v: report %+v does not describe its result (span %d, %d rows)", q, exec, tc.SpanID, res.RowsScanned)
			}
			return res, nil
		}
	}
	entries := []struct {
		name    string
		sharded bool
		run     func(*query.Query) (*query.Result, error)
	}{
		{"Leaf.Query", false, l.Query},
		{"Leaf.QueryTraced", false, reported(func(q *query.Query) (*query.Result, *obs.ExecStats, error) { return l.QueryTraced(q, tc) }, 0)},
		{"Leaf.QueryShards(nil)", false, reported(func(q *query.Query) (*query.Result, *obs.ExecStats, error) { return l.QueryShards(q, nil, tc) }, 0)},
		{"Client.Query", false, c.Query},
		{"Client.QueryTraced", false, reported(func(q *query.Query) (*query.Result, *obs.ExecStats, error) { return c.QueryTraced(q, tc) }, 0)},
		{"Client.QueryShards(nil)", false, reported(func(q *query.Query) (*query.Result, *obs.ExecStats, error) { return c.QueryShards(q, nil, tc) }, 0)},
		{"Aggregator", false, agg.Query},
		{"AggServer", false, viaAgg.QueryVia},
		{"Leaf.QueryShards", true, reported(func(q *query.Query) (*query.Result, *obs.ExecStats, error) { return l.QueryShards(q, shards, tc) }, numShards)},
		{"Client.QueryShards", true, reported(func(q *query.Query) (*query.Result, *obs.ExecStats, error) { return c.QueryShards(q, shards, tc) }, numShards)},
		{"Aggregator/routed", true, shardAgg.Query},
		{"AggServer/routed", true, viaShardAgg.QueryVia},
	}

	type work struct{ rows, scanned, pruned, skipped int64 }
	qs := workload.NewQueries(23, table, from, gen.Now())
	answered, skipped := 0, int64(0)
	for i := 0; i < numQuery; i++ {
		q := qs.Next()
		ref, err := query.Reference(all, q)
		if err != nil {
			t.Fatalf("%v: reference: %v", q, err)
		}
		want := ref.Rows(q)
		if len(want) > 0 {
			answered++
		}
		var first [2]*work // by sharded
		for _, e := range entries {
			res, err := e.run(q)
			if err != nil {
				t.Fatalf("%v via %s: %v", q, e.name, err)
			}
			if !strictlySorted(res.Groups) {
				t.Fatalf("%v via %s: groups out of key order or repeated", q, e.name)
			}
			if got := res.Rows(q); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v via %s:\n got %+v\nwant %+v", q, e.name, got, want)
			}
			w := work{res.RowsScanned, res.BlocksScanned, res.BlocksPruned, res.BlocksSkipped}
			class := 0
			if e.sharded {
				class = 1
			}
			if first[class] == nil {
				first[class] = &w
				skipped += w.skipped
			} else if w != *first[class] {
				t.Fatalf("%v via %s: work %+v, the first entry over the same blocks did %+v", q, e.name, w, *first[class])
			}
		}
	}
	if answered < numQuery/4 || skipped == 0 {
		t.Fatalf("mix too thin to mean anything: %d/%d queries matched rows, %d blocks skipped", answered, numQuery, skipped)
	}
}

// strictlySorted reports whether groups keep query.Result's invariant.
func strictlySorted(groups []query.Group) bool {
	for i := 1; i < len(groups); i++ {
		if slices.Compare(groups[i-1].Key, groups[i].Key) >= 0 {
			return false
		}
	}
	return true
}
