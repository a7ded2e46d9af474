package aggregator

import (
	"testing"

	"scuba/internal/obs"
)

// A shard-routing aggregator must plan __system.* queries as a whole-table
// fan-out to every leaf: self-telemetry tables are leaf-local plain tables,
// so a shard-scoped plan would rewrite to physical "T@s" names no sink ever
// wrote and the telemetry would be invisible.
func TestSystemTableBypassesShardRouting(t *testing.T) {
	a, fakes, _ := shardedAgg(t, 4, 2, 8)

	// Sanity: a user table IS shard-routed (no whole-table calls).
	if _, err := a.Query(countQ("service_logs")); err != nil {
		t.Fatal(err)
	}
	for i, f := range fakes {
		if f.full != 0 {
			t.Fatalf("leaf %d saw %d whole-table calls for a sharded user table", i, f.full)
		}
	}

	res, err := a.Query(countQ(obs.SystemMetricsTable))
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range fakes {
		if f.full != 1 {
			t.Errorf("leaf %d whole-table calls = %d, want 1", i, f.full)
		}
	}
	// Unsharded semantics: per-leaf coverage, no shard accounting.
	if res.LeavesTotal != 4 || res.LeavesAnswered != 4 {
		t.Errorf("leaf coverage = %d/%d", res.LeavesAnswered, res.LeavesTotal)
	}
	if res.ShardsTotal != 0 || res.ShardsAnswered != 0 {
		t.Errorf("system table picked up shard accounting: %d/%d", res.ShardsAnswered, res.ShardsTotal)
	}
}
