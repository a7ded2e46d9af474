package query

import (
	"testing"

	"scuba/internal/metrics"
)

// TestPhaseTimesRecorded checks that execution fills the per-phase
// breakdown: a scan that decodes columns and tests zone maps must report
// decode, prune and scan time, and the worker partial-merge must land in
// MergeNanos on the parallel path.
func TestPhaseTimesRecorded(t *testing.T) {
	tbl := fixtureTable(t)
	q := &Query{
		Table: "events", From: 0, To: 1 << 40,
		GroupBy:      []string{"service"},
		Aggregations: []Aggregation{{Op: AggAvg, Column: "latency"}},
	}
	res, err := executeOn(2, tbl, q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases.DecodeNanos <= 0 {
		t.Errorf("DecodeNanos = %d, want > 0 (columns were decoded)", res.Phases.DecodeNanos)
	}
	if res.Phases.PruneNanos <= 0 {
		t.Errorf("PruneNanos = %d, want > 0 (zone maps were tested)", res.Phases.PruneNanos)
	}
	if res.Phases.ScanNanos <= 0 {
		t.Errorf("ScanNanos = %d, want > 0 (rows were scanned)", res.Phases.ScanNanos)
	}
	if res.Phases.MergeNanos <= 0 {
		t.Errorf("MergeNanos = %d, want > 0 (worker partials were merged)", res.Phases.MergeNanos)
	}
}

// TestPhaseTimesPrunedQuery checks the pruned-everything shape: when zone
// maps reject every block, prune time is the only block-level cost and no
// decode or scan time accrues.
func TestPhaseTimesPrunedQuery(t *testing.T) {
	tbl := fixtureTable(t)
	q := &Query{
		Table: "events", From: 0, To: 1 << 40,
		Aggregations: []Aggregation{{Op: AggCount}},
		// latency is always in [0,19]; this filter can never match.
		Filters: []Filter{{Column: "latency", Op: OpGt, Int: 1000, Float: 1000}},
	}
	res, err := executeOn(1, tbl, q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.BlocksPruned != 3 {
		t.Fatalf("BlocksPruned = %d, want 3", res.BlocksPruned)
	}
	if res.Phases.PruneNanos <= 0 {
		t.Errorf("PruneNanos = %d, want > 0", res.Phases.PruneNanos)
	}
	if res.Phases.DecodeNanos != 0 || res.RowsScanned != 0 {
		t.Errorf("pruned query decoded anyway: decode=%dns rows=%d",
			res.Phases.DecodeNanos, res.RowsScanned)
	}
}

// TestPhaseTimesMergeAcrossResults checks that Merge sums phase times and
// cache counters — the aggregator relies on this to report cross-leaf
// totals on the merged result.
func TestPhaseTimesMergeAcrossResults(t *testing.T) {
	a, b := &Result{}, &Result{}
	a.Phases = PhaseTimes{DecodeNanos: 10, PruneNanos: 20, ScanNanos: 30, MergeNanos: 40}
	a.CacheHits, a.CacheMisses = 5, 1
	b.Phases = PhaseTimes{DecodeNanos: 1, PruneNanos: 2, ScanNanos: 3, MergeNanos: 4}
	b.CacheHits, b.CacheMisses = 2, 7
	a.Merge(b)
	want := PhaseTimes{DecodeNanos: 11, PruneNanos: 22, ScanNanos: 33, MergeNanos: 44}
	if a.Phases != want {
		t.Errorf("merged phases = %+v, want %+v", a.Phases, want)
	}
	if a.CacheHits != 7 || a.CacheMisses != 8 {
		t.Errorf("merged cache counters = %d/%d, want 7/8", a.CacheHits, a.CacheMisses)
	}
}

// TestResultCacheCountersMatchRegistry checks the per-query counters track
// the registry exactly: one cold run is all misses, one warm run all hits.
func TestResultCacheCountersMatchRegistry(t *testing.T) {
	tbl := fixtureTable(t)
	reg := metrics.NewRegistry()
	dc := NewDecodeCache(64<<20, reg)
	q := &Query{
		Table: "events", From: 0, To: 1 << 40,
		GroupBy:      []string{"service"},
		Aggregations: []Aggregation{{Op: AggAvg, Column: "latency"}},
	}
	cold, err := executeOn(1, tbl, q, ExecOptions{Cache: dc})
	if err != nil {
		t.Fatal(err)
	}
	hits, misses, _ := cacheCounters(reg)
	if cold.CacheHits != hits || cold.CacheMisses != misses {
		t.Errorf("cold result counters %d/%d, registry %d/%d",
			cold.CacheHits, cold.CacheMisses, hits, misses)
	}
	if cold.CacheMisses == 0 {
		t.Error("cold run reported no misses")
	}

	warm, err := executeOn(1, tbl, q, ExecOptions{Cache: dc})
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheHits == 0 || warm.CacheMisses != 0 {
		t.Errorf("warm result counters %d/%d, want all hits", warm.CacheHits, warm.CacheMisses)
	}
	regHits, _, _ := cacheCounters(reg)
	if regHits != hits+warm.CacheHits {
		t.Errorf("registry hits %d, want %d", regHits, hits+warm.CacheHits)
	}

	// The per-phase and cache fields survive the wire round trip.
	back := overWire(t, warm)
	if back.Phases != warm.Phases || back.CacheHits != warm.CacheHits || back.CacheMisses != warm.CacheMisses {
		t.Errorf("wire round trip dropped trace fields: %+v vs %+v", back, warm)
	}
}
