package leaf

import (
	"sync"
	"testing"

	"scuba/internal/metrics"
	"scuba/internal/query"
	"scuba/internal/rowblock"
	"scuba/internal/table"
)

// TestDecodeCacheRace hammers one table with concurrent queries (which
// populate and read the decoded-column cache through the parallel scan
// pool), concurrent ingestion that seals new blocks, and concurrent
// expiration that fires the evict hook invalidating cache entries. Run
// under -race this pins the cache's synchronization; functionally it checks
// queries never observe decode errors or impossible counts.
func TestDecodeCacheRace(t *testing.T) {
	e := newEnv(t)
	cfg := e.config(0)
	cfg.Metrics = metrics.NewRegistry()
	setProcs(t, 4)
	cfg.DecodeCacheBytes = 1 << 20 // small enough to force evictions
	cfg.Table = table.Options{MaxAgeSeconds: 1 << 40}
	l := startLeaf(t, cfg)

	const (
		writers    = 2
		readers    = 4
		iterations = 60
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(1000 + w*1_000_000)
			for i := 0; i < iterations; i++ {
				rows := make([]rowblock.Row, 200)
				for j := range rows {
					rows[j] = rowblock.Row{
						Time: base + int64(i*200+j),
						Cols: map[string]rowblock.Value{
							"service": rowblock.StringValue([]string{"web", "ads", "search"}[j%3]),
							"latency": rowblock.Int64Value(int64(j % 50)),
						},
					}
				}
				if err := l.AddRows("hot", rows); err != nil {
					t.Error(err)
					return
				}
				if err := l.SealAll(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	var expireWG sync.WaitGroup
	expireWG.Add(1)
	go func() {
		defer expireWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// now far in the future relative to MaxAge never expires; use a
			// sliding cutoff that expires early blocks as writers advance.
			if _, err := l.ExpireAll(int64(1 << 41)); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	queries := []*query.Query{
		{Table: "hot", From: 0, To: 1 << 40, Aggregations: []query.Aggregation{{Op: query.AggCount}}},
		{Table: "hot", From: 0, To: 1 << 40, GroupBy: []string{"service"},
			Aggregations: []query.Aggregation{{Op: query.AggAvg, Column: "latency"}}},
		{Table: "hot", From: 0, To: 1 << 40,
			Filters:      []query.Filter{{Column: "latency", Op: query.OpLt, Int: 10}},
			Aggregations: []query.Aggregation{{Op: query.AggCount}}},
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				q := queries[(r+i)%len(queries)]
				res, err := l.Query(q)
				if err != nil {
					t.Error(err)
					return
				}
				if res.RowsScanned < 0 {
					t.Errorf("negative rows scanned")
					return
				}
			}
		}(r)
	}

	// Wait for writers and readers, then stop the expirer.
	wg.Wait()
	close(stop)
	expireWG.Wait()

	// The table still answers correctly after the storm.
	res, err := l.Query(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsScanned == 0 && l.Table("hot").Rows() > 0 {
		t.Errorf("final query scanned nothing over a non-empty table")
	}
}

// TestDecodeCacheIsTheLeafs: a leaf's tables share one decoded-column cache
// under one budget, so the cache's byte gauge counts every table's columns:
// two tables of the same shape, each queried once, read twice what one does.
func TestDecodeCacheIsTheLeafs(t *testing.T) {
	e := newEnv(t)
	cfg := e.config(0)
	cfg.Metrics = metrics.NewRegistry()
	cfg.DecodeCacheBytes = 32 << 20
	l := startLeaf(t, cfg)
	for _, name := range []string{"a", "b"} {
		ingest(t, l, name, 2000, 1000)
	}
	if err := l.SealAll(); err != nil {
		t.Fatal(err)
	}
	gauge := cfg.Metrics.Gauge("query.decode_cache.bytes")
	groupedResult(t, l, "a")
	one := gauge.Value()
	groupedResult(t, l, "b")
	if one == 0 || gauge.Value() != 2*one {
		t.Fatalf("decode cache gauge reads %d bytes after one table's query and %d after both, want twice the first", one, gauge.Value())
	}
}
