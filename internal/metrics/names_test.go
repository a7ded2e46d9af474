package metrics

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCanonicalName(t *testing.T) {
	cases := map[string]string{
		"query.exec.latency":      "query_exec_latency",
		"query.decode_cache.hits": "query_decode_cache_hits",
		"restart.table.copy_out":  "restart_table_copy_out",
		"Already_Snake":           "already_snake",
		"a..b":                    "a_b",
		"a-b c/d":                 "a_b_c_d",
		".leading":                "leading",
		"trailing.":               "trailing",
		"":                        "_",
		"___":                     "_",
		"x":                       "x",
	}
	for in, want := range cases {
		if got := CanonicalName(in); got != want {
			t.Errorf("CanonicalName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestCanonicalNames pins the canonical spelling of every production metric
// name. Dashboards and scrape configs key on these; a change here is a
// breaking rename and must be deliberate. The test also proves the mapping
// stays collision-free: no two internal names may canonicalize to the same
// exposition name.
func TestCanonicalNames(t *testing.T) {
	pinned := map[string]string{
		// leaf query path
		"query.exec.count":             "query_exec_count",
		"query.exec.errors":            "query_exec_errors",
		"query.exec.latency":           "query_exec_latency",
		"query.blocks_pruned":          "query_blocks_pruned",
		"query.decode_cache.bytes":     "query_decode_cache_bytes",
		"query.decode_cache.hits":      "query_decode_cache_hits",
		"query.decode_cache.misses":    "query_decode_cache_misses",
		"query.decode_cache.evictions": "query_decode_cache_evictions",
		// aggregator
		"query.count":            "query_count",
		"query.errors":           "query_errors",
		"query.latency":          "query_latency",
		"query.fanout":           "query_fanout",
		"query.leaves_total":     "query_leaves_total",
		"query.leaves_answered":  "query_leaves_answered",
		"query.leaves_abandoned": "query_leaves_abandoned",
		"query.shards_total":     "query_shards_total",
		"query.shards_answered":  "query_shards_answered",
		"query.shards_unserved":  "query_shards_unserved",
		// wire server
		"rpc.errors": "rpc_errors",
		"rpc.ping":   "rpc_ping",
		"rpc.query":  "rpc_query",
		"rows.added": "rows_added",
		// leaf facts, sampled by scubad's snapshot hook: one
		// leaf.recovery.<path> gauge per leaf.RecoveryPath, 1 for the path of
		// the last Start, spelled as the rollover counters spell it
		"leaf.tables":            "leaf_tables",
		"leaf.blocks":            "leaf_blocks",
		"leaf.rows":              "leaf_rows",
		"leaf.bytes":             "leaf_bytes",
		"leaf.free_memory":       "leaf_free_memory",
		"leaf.quarantined":       "leaf_quarantined",
		"leaf.recovery.none":     "leaf_recovery_none",
		"leaf.recovery.memory":   "leaf_recovery_memory",
		"leaf.recovery.shm_view": "leaf_recovery_shm_view",
		"leaf.recovery.mixed":    "leaf_recovery_mixed",
		"leaf.recovery.wal":      "leaf_recovery_wal",
		"leaf.recovery.disk":     "leaf_recovery_disk",
		// restart ledger: one timer per span phase (internal/obs/restart.go),
		// whole-leaf phases first, then a table's steps; promotion's blocks
		// are one timer, not spans
		"restart.quiesce":         "restart_quiesce",
		"restart.copy_out":        "restart_copy_out",
		"restart.commit":          "restart_commit",
		"restart.exit":            "restart_exit",
		"restart.map":             "restart_map",
		"restart.copy_in":         "restart_copy_in",
		"restart.view":            "restart_view",
		"restart.disk_recovery":   "restart_disk_recovery",
		"restart.alive":           "restart_alive",
		"restart.first_answer":    "restart_first_answer",
		"restart.promote":         "restart_promote",
		"restart.promote.block":   "restart_promote_block",
		"restart.table.seal":      "restart_table_seal",
		"restart.table.persist":   "restart_table_persist",
		"restart.table.copy_out":  "restart_table_copy_out",
		"restart.table.copy_in":   "restart_table_copy_in",
		"restart.table.view":      "restart_table_view",
		"restart.table.adopt":     "restart_table_adopt",
		"restart.table.load":      "restart_table_load",
		"restart.table.replay":    "restart_table_replay",
		"restart.table.log_reset": "restart_table_log_reset",
		// blocks a start's checks replaced from the store, and rows it lost
		"restart.blocks_replaced": "restart_blocks_replaced",
		"restart.rows_dropped":    "restart_rows_dropped",
		// rollover driver: one recovery counter per leaf.RecoveryPath
		// (cluster.TestRolloverCountsEveryRecoveryPath emits all six)
		"rollover.batch":               "rollover_batch",
		"rollover.restarts":            "rollover_restarts",
		"rollover.aborts":              "rollover_aborts",
		"rollover.min_availability_bp": "rollover_min_availability_bp",
		"rollover.recovery.none":       "rollover_recovery_none",
		"rollover.recovery.memory":     "rollover_recovery_memory",
		"rollover.recovery.shm_view":   "rollover_recovery_shm_view",
		"rollover.recovery.mixed":      "rollover_recovery_mixed",
		"rollover.recovery.wal":        "rollover_recovery_wal",
		"rollover.recovery.disk":       "rollover_recovery_disk",
		// tailer
		"tailer.drain":       "tailer_drain",
		"tailer.errors":      "tailer_errors",
		"tailer.rows_bad":    "tailer_rows_bad",
		"tailer.rows_lost":   "tailer_rows_lost",
		"tailer.rows_placed": "tailer_rows_placed",
		// tracing
		"trace.count": "trace_count",
		"trace.slow":  "trace_slow",
		// runtime self-metrics
		"runtime.goroutines": "runtime_goroutines",
		"runtime.heap_bytes": "runtime_heap_bytes",
		"runtime.gc_pause":   "runtime_gc_pause",
		// self-telemetry sink
		"sink.rows":    "sink_rows",
		"sink.dropped": "sink_dropped",
		"sink.errors":  "sink_errors",
	}
	seen := make(map[string]string, len(pinned))
	for raw, want := range pinned {
		got := CanonicalName(raw)
		if got != want {
			t.Errorf("CanonicalName(%q) = %q, pinned %q", raw, got, want)
		}
		if prev, dup := seen[got]; dup {
			t.Errorf("collision: %q and %q both canonicalize to %q", prev, raw, got)
		}
		seen[got] = raw
	}
}

// TestRetiredNamesStayRetired: a leaf's facts have one writer, its own sink,
// so the aggregator-side scraper's counters went with the scraper; and a
// duration is observed once, by a timer, so the µs histogram twins beside the
// query timers went, and the µs-named pause and promote histograms are timers
// under their plain names; and both shm starts open a segment in a view
// span, so the eager start's crc span went. No non-test source in the module
// may name them again.
func TestRetiredNamesStayRetired(t *testing.T) {
	retired := []string{"scrape.count", "scrape.errors", "scrape_count", "scrape_errors",
		"query.latency_hist", "query.exec.latency_hist", "runtime.gc_pause_hist", "restart.promote.block_us",
		"restart.table.crc"}
	err := filepath.WalkDir(filepath.Join("..", ".."), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, name := range retired {
			if strings.Contains(string(src), `"`+name+`"`) {
				t.Errorf("%s names the retired metric %q", path, name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
