package leaf

import (
	"encoding/json"
	"runtime"
	"sync"
	"testing"

	"scuba/internal/metrics"
	"scuba/internal/obs"
	"scuba/internal/query"
	"scuba/internal/workload"
)

const setBlocks, setBlockRows = 3, 10_000

// dashboard is dash_read's scan class: a contains filter on the tags set, a
// two-column group-by and three aggregates. filtered false drops the filter.
func dashboard(filtered bool) *query.Query {
	q := &query.Query{
		Table: "service_logs", From: 0, To: 1 << 40,
		GroupBy: []string{"host", "service"},
		Aggregations: []query.Aggregation{
			{Op: query.AggCount}, {Op: query.AggAvg, Column: "cpu_ms"}, {Op: query.AggP99, Column: "latency_ms"},
		},
	}
	if filtered {
		q.Filters = []query.Filter{{Column: "tags", Op: query.OpContains, Str: "prod"}}
	}
	return q
}

// loadServiceLogs ingests setBlocks sealed blocks of service_logs rows, whose
// tags dictionary is prod and tier0..2: one byte of mask a row.
func loadServiceLogs(t *testing.T, l *Leaf) {
	t.Helper()
	gen := workload.ServiceLogs(7, 1_700_000_000)
	for b := 0; b < setBlocks; b++ {
		if err := l.AddRows("service_logs", gen.NextBatch(setBlockRows)); err != nil {
			t.Fatal(err)
		}
		if err := l.SealAll(); err != nil {
			t.Fatal(err)
		}
	}
}

func answer(t *testing.T, l *Leaf, q *query.Query) (string, *obs.ExecStats) {
	t.Helper()
	res, exec, err := l.QueryTraced(q, obs.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res.Rows(q))
	if err != nil {
		t.Fatal(err)
	}
	return string(b), exec
}

// allocatedBy is the bytes run allocates with every sync.Pool emptied first,
// so that a buffer the scan takes from a pool shows as an allocation.
func allocatedBy(run func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC() // the second empties the pools' victim caches too
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDashboardReadsSetMasksFromTheCache: the first dashboard keeps tags in
// the decode cache as one byte of mask a row beside its dictionary, and the
// second reads every column, tags included, from the cache — no miss, and
// no LZ4 buffer for the tags rows: with the pools empty it allocates what the
// same dashboard without the filter does, not the 3 B/row of a block the
// un-LZ4'd rows take.
func TestDashboardReadsSetMasksFromTheCache(t *testing.T) {
	setProcs(t, 1)
	cfg := newEnv(t).config(0)
	cfg.DecodeCacheBytes = 32 << 20
	cfg.Metrics = metrics.NewRegistry()
	l := startLeaf(t, cfg)
	loadServiceLogs(t, l)
	cached := cfg.Metrics.Gauge("query.decode_cache.bytes")

	plain, _ := answer(t, l, dashboard(false)) // host, service, cpu_ms, latency_ms
	without := cached.Value()
	first, exec := answer(t, l, dashboard(true))
	if exec.CacheMisses != setBlocks || exec.CacheHits != 4*setBlocks {
		t.Errorf("first dashboard: %d hits, %d misses; want %d, %d", exec.CacheHits, exec.CacheMisses, 4*setBlocks, setBlocks)
	}
	// Per block: the entry's key and bookkeeping, the dictionary, a byte a row.
	dict := int64(len("prod") + len("tier0") + len("tier1") + len("tier2") + 4*16)
	if grew, want := cached.Value()-without, setBlocks*(int64(len("tags"))+64+dict+setBlockRows); grew != want {
		t.Errorf("tags' masks grew the cache by %d bytes, want %d", grew, want)
	}
	second, exec := answer(t, l, dashboard(true))
	if second != first || plain != first { // every row holds prod
		t.Error("the dashboard's answer changed between runs, or the filter dropped rows")
	}
	if exec.CacheMisses != 0 || exec.CacheHits != 5*setBlocks {
		t.Errorf("second dashboard: %d hits, %d misses; want %d, 0", exec.CacheHits, exec.CacheMisses, 5*setBlocks)
	}

	run := func(q *query.Query) func() {
		return func() {
			if _, err := l.Query(q); err != nil {
				t.Error(err)
			}
		}
	}
	filtered, unfiltered := allocatedBy(run(dashboard(true))), allocatedBy(run(dashboard(false)))
	if filtered > unfiltered+setBlockRows {
		t.Errorf("a warm dashboard allocated %d bytes, %d more than without its filter: the tags rows were un-LZ4'd", filtered, filtered-unfiltered)
	}
}

// TestInstantOnSetMasksAcrossPromotion: an instant-on leaf builds tags' masks
// from blocks served out of the mapped segment, keeps them while promotion
// swaps those blocks for heap copies under concurrent dashboards, and answers
// as the leaf before the restart did, before and after promotion.
func TestInstantOnSetMasksAcrossPromotion(t *testing.T) {
	e := newEnv(t)
	cfg := e.config(0)
	cfg.DecodeCacheBytes = 32 << 20
	old := startLeaf(t, cfg)
	loadServiceLogs(t, old)
	want, _ := answer(t, old, dashboard(true))
	if _, err := old.Shutdown(); err != nil {
		t.Fatal(err)
	}

	cfg.InstantOn = true
	l := startLeaf(t, cfg)
	defer l.stopPromoter()
	if rec := l.Recovery(); rec.Path != RecoveryShmView {
		t.Fatalf("recovery = %+v", rec)
	}
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				res, err := l.Query(dashboard(true))
				if err != nil {
					t.Error(err)
					return
				}
				if got, _ := json.Marshal(res.Rows(dashboard(true))); string(got) != want {
					t.Error("a dashboard during promotion answered differently")
					return
				}
			}
		}()
	}
	wg.Wait()
	waitPromoted(t, l)
	for i := 0; i < 2; i++ { // the heap copies' masks are built, then read
		if got, _ := answer(t, l, dashboard(true)); got != want {
			t.Errorf("dashboard %d after promotion answered differently", i)
		}
	}
}
