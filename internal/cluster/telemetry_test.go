package cluster

import (
	"testing"
	"time"

	"scuba/internal/leaf"
	"scuba/internal/rowblock"
)

func TestAvailabilityReportRows(t *testing.T) {
	start := time.Unix(1_700_000_000, 0)
	rep := &AvailabilityReport{
		Points: []AvailabilityPoint{
			{Elapsed: 1 * time.Second, ShardCoverage: 1, LeafCoverage: 1, Latency: 2 * time.Millisecond},
			{Elapsed: 2 * time.Second, ShardCoverage: 0.75, LeafCoverage: 0.5, Latency: 5 * time.Millisecond},
		},
		Queries:          40,
		Errors:           1,
		MinShardCoverage: 0.75,
		MinLeafCoverage:  0.5,
		P50:              2 * time.Millisecond,
		P99:              5 * time.Millisecond,
	}
	rows := rep.Rows("drill", start)
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 2 points + summary", len(rows))
	}
	if got := rows[0].Cols["event"].Str; got != "probe" {
		t.Errorf("event = %q", got)
	}
	if got := rows[0].Time; got != start.Unix()+1 {
		t.Errorf("point time = %d, want start+1s", got)
	}
	if got := rows[1].Cols["shard_coverage"].Float; got != 0.75 {
		t.Errorf("shard_coverage = %v", got)
	}
	sum := rows[2]
	if sum.Cols["event"].Str != "probe_summary" {
		t.Fatalf("summary event = %q", sum.Cols["event"].Str)
	}
	if sum.Cols["queries"].Int != 40 || sum.Cols["errors"].Int != 1 {
		t.Errorf("summary counts = %+v", sum.Cols)
	}
	if sum.Cols["min_leaf_coverage"].Float != 0.5 {
		t.Errorf("min_leaf_coverage = %v", sum.Cols["min_leaf_coverage"].Float)
	}
	if sum.Time != start.Unix()+2 {
		t.Errorf("summary time = %d", sum.Time)
	}
}

func TestRolloverReportRows(t *testing.T) {
	start := time.Unix(1_700_000_100, 0)
	rep := &RolloverReport{
		Duration: 4 * time.Second,
		Batches:  2,
		Restarts: []Restart{
			{Leaf: 0, Name: "a:1", Recovery: leaf.RecoveryMemory, Duration: time.Second},
			{Leaf: 1, Name: "a:2", Recovery: leaf.RecoveryDisk, Killed: true, Duration: 2 * time.Second},
			{Leaf: 2, Name: "a:3", Err: "never ready", Duration: time.Second},
		},
		Recoveries:  map[leaf.RecoveryPath]int{leaf.RecoveryMemory: 1, leaf.RecoveryDisk: 1},
		Quarantined: []int{2},
	}
	rows := rep.Rows("drill", start)
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 3 restarts + summary", len(rows))
	}
	byLeaf := map[int64]rowblock.Row{}
	for _, r := range rows[:3] {
		if r.Cols["event"].Str != "restart" {
			t.Fatalf("event = %q", r.Cols["event"].Str)
		}
		byLeaf[r.Cols["leaf"].Int] = r
	}
	if r := byLeaf[1]; r.Cols["recovery"].Str != "disk" || r.Cols["killed"].Int != 1 {
		t.Errorf("leaf 1 row = %+v", r.Cols)
	}
	if r := byLeaf[2]; r.Cols["error"].Str != "never ready" {
		t.Errorf("leaf 2 row = %+v", r.Cols)
	}
	sum := rows[3]
	if sum.Cols["event"].Str != "rollover_summary" {
		t.Fatalf("summary event = %q", sum.Cols["event"].Str)
	}
	if sum.Cols["batches"].Int != 2 || sum.Cols["restarts"].Int != 3 ||
		sum.Cols["disk_recoveries"].Int != 1 || sum.Cols["memory_recoveries"].Int != 1 ||
		sum.Cols["shm_view_recoveries"].Int != 0 || sum.Cols["quarantined"].Int != 1 {
		t.Errorf("summary = %+v", sum.Cols)
	}
	if sum.Time != start.Unix()+4 {
		t.Errorf("summary time = %d", sum.Time)
	}
}
