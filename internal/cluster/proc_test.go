package cluster

// Quarantine-path tests for the subprocess fleet: when a replacement process
// cannot start — or must not be started — the rollover must not hang or
// abort: the slot is marked DOWN in the shard map, listed in the report, and
// its shards keep serving from replicas. Package-internal because sabotaging
// the binary path mid-rollover reaches into ProcCluster's config.

import (
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"scuba/internal/fault"
	"scuba/internal/leaf"
	"scuba/internal/obs"
	"scuba/internal/query"
	"scuba/internal/rowblock"
	"scuba/internal/shard"
)

// startQuarantineCluster boots two scubad leaves on two machines under R=2,
// loads 500 rows of "events" and returns the query and its baseline answer.
func startQuarantineCluster(t *testing.T) (*ProcCluster, *query.Query, []query.Row) {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode: skipping subprocess quarantine drill")
	}
	bin, err := BuildScubad(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pc, err := StartProcCluster(ProcConfig{
		BinPath:          bin,
		Machines:         2,
		LeavesPerMachine: 1,
		Replication:      2,
		WorkDir:          t.TempDir(),
		Namespace:        "quarantine",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pc.Close)

	placer := pc.NewShardedPlacer()
	rows := make([]rowblock.Row, 500)
	for i := range rows {
		rows[i] = rowblock.Row{Time: int64(1000 + i), Cols: map[string]rowblock.Value{
			"service": rowblock.StringValue(fmt.Sprintf("svc-%d", i%3)),
		}}
	}
	if _, err := placer.Place("events", rows); err != nil {
		t.Fatal(err)
	}

	q := &query.Query{Table: "events", From: 0, To: 1 << 40,
		Aggregations: []query.Aggregation{{Op: query.AggCount}},
		GroupBy:      []string{"service"}}
	baseline, err := pc.AggClient().Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if baseline.ShardCoverage() != 1 {
		t.Fatalf("baseline coverage %d/%d", baseline.ShardsAnswered, baseline.ShardsTotal)
	}
	return pc, q, baseline.Rows(q)
}

// wantServedByReplicas: the victim is DOWN in the shard map and quarantined
// on its slot; with R=2 over two machines the surviving leaf owns every
// shard, so coverage and results hold.
func wantServedByReplicas(t *testing.T, pc *ProcCluster, victim int, q *query.Query, baseRows []query.Row) {
	t.Helper()
	if !pc.Leaf(victim).Quarantined() {
		t.Errorf("leaf %d not marked quarantined on its slot", victim)
	}
	_, statuses, _, err := pc.AggClient().ShardMap()
	if err != nil {
		t.Fatal(err)
	}
	if statuses[victim] != shard.StatusDown {
		t.Errorf("quarantined leaf %d status = %v, want DOWN", victim, statuses[victim])
	}
	after, err := pc.AggClient().Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if after.ShardCoverage() != 1 {
		t.Errorf("post-quarantine coverage %d/%d, want full from replicas",
			after.ShardsAnswered, after.ShardsTotal)
	}
	if !reflect.DeepEqual(after.Rows(q), baseRows) {
		t.Error("post-quarantine result differs from baseline")
	}
}

func TestSubprocessRolloverQuarantinesUnstartableReplacement(t *testing.T) {
	pc, q, baseRows := startQuarantineCluster(t)

	// Sabotage the first batch's replacement: exec fails instantly, so the
	// quarantine path triggers without waiting out the ready timeout. Later
	// batches get the real binary back and must restart cleanly.
	good := pc.cfg.BinPath
	rep, err := pc.Rollover(RolloverConfig{
		BatchFraction: 0.5,
		MaxPerMachine: 1,
		UseShm:        true,
		KillTimeout:   time.Minute,
		Tables:        []string{"events"},
		OnBatch: func(batch int, _ []string, _ Snapshot) {
			if batch == 0 {
				pc.cfg.BinPath = filepath.Join(t.TempDir(), "no-such-scubad")
			} else {
				pc.cfg.BinPath = good
			}
		},
	})
	if err != nil {
		t.Fatalf("a quarantine must not fail the rollover: %v", err)
	}
	if len(rep.Quarantined) != 1 {
		t.Fatalf("quarantined = %v, want exactly one leaf", rep.Quarantined)
	}
	victim := rep.Quarantined[0]
	if got := rep.Recoveries[leaf.RecoveryMemory]; got != 1 {
		t.Errorf("memory recoveries = %d, want 1 (the healthy batch)", got)
	}
	for _, r := range rep.Restarts {
		if r.Leaf == victim && r.Err == "" {
			t.Errorf("victim restart %+v carries no error", r)
		}
	}
	wantServedByReplicas(t, pc, victim, q, baseRows)
}

// TestSubprocessRolloverKeepsUndiscardableBackupDown: a leaf killed past
// KillTimeout may have left half a backup behind its valid bit; when that
// backup cannot be invalidated the replacement must not be started over it
// (§4.3) — the slot stays DOWN and out of the recovery tally.
func TestSubprocessRolloverKeepsUndiscardableBackupDown(t *testing.T) {
	pc, q, baseRows := startQuarantineCluster(t)
	t.Cleanup(fault.Reset)
	fault.Reset()
	// The orchestrator's first metadata read — the first killed leaf's
	// Invalidate — fails; the leaves are other processes and see no fault.
	if err := fault.ArmSpec("shm.map=error;count=1"); err != nil {
		t.Fatal(err)
	}
	rep, err := pc.Rollover(RolloverConfig{
		BatchFraction: 0.5,
		UseShm:        true,
		KillTimeout:   time.Nanosecond, // no drain is that fast: both leaves are SIGKILLed
	})
	fault.Reset()
	if err != nil {
		t.Fatalf("a quarantine must not fail the rollover: %v", err)
	}
	if !reflect.DeepEqual(rep.Quarantined, []int{0}) {
		t.Fatalf("quarantined = %v, want the first leaf only (report: %+v)", rep.Quarantined, rep)
	}
	victim, other := rep.Restarts[0], rep.Restarts[1]
	if !victim.Killed || victim.Err == "" || victim.Recovery != "" || victim.Gap != 0 {
		t.Errorf("victim restart = %+v, want killed, failed, never started", victim)
	}
	if pc.Leaf(0).Client().Ping() == nil {
		t.Error("a replacement is running over the backup that could not be discarded")
	}
	if !other.Killed || other.Err != "" || other.Recovery == leaf.RecoveryMemory || other.Recovery == leaf.RecoveryShmView {
		t.Errorf("second restart = %+v, want killed and recovered without shared memory", other)
	}
	if want := (map[leaf.RecoveryPath]int{other.Recovery: 1}); !reflect.DeepEqual(rep.Recoveries, want) {
		t.Errorf("recoveries = %v, want %v", rep.Recoveries, want)
	}
	wantServedByReplicas(t, pc, 0, q, baseRows)
}

// TestSubprocessRolloverQuarantinesUnreadableRecovery: a replacement that
// serves but cannot say how it recovered is one the guards cannot judge — it
// is quarantined, not tallied under an empty path.
func TestSubprocessRolloverQuarantinesUnreadableRecovery(t *testing.T) {
	pc, q, baseRows := startQuarantineCluster(t)
	// Leaf 0's replacement is started with -http '' (observability off), so
	// it answers Ping and has no /debug/recovery.
	pc.Leaf(0).HTTPAddr = ""
	rep, err := pc.Rollover(RolloverConfig{BatchFraction: 0.5, UseShm: true, KillTimeout: time.Minute})
	if err != nil {
		t.Fatalf("a quarantine must not fail the rollover: %v", err)
	}
	if !reflect.DeepEqual(rep.Quarantined, []int{0}) || rep.Restarts[0].Err == "" {
		t.Errorf("quarantined = %v, leaf 0's restart = %+v", rep.Quarantined, rep.Restarts[0])
	}
	if want := (map[leaf.RecoveryPath]int{leaf.RecoveryMemory: 1}); !reflect.DeepEqual(rep.Recoveries, want) {
		t.Errorf("recoveries = %v, want %v", rep.Recoveries, want)
	}
	wantServedByReplicas(t, pc, 0, q, baseRows)
}

// TestProcRecoveryIsTheLiveState: what restart tooling reads from
// /debug/recovery is the leaf's recovery state as it stands at the request —
// an instant-on promotion moving between two reads moves the answer with it.
func TestProcRecoveryIsTheLiveState(t *testing.T) {
	var promoted atomic.Int64
	srv := httptest.NewServer(obs.Handler(obs.HandlerConfig{
		Recovery: func() any {
			p := promoted.Load()
			return map[string]any{"Path": "shm-view", "served_from_shm": 8 - p, "promoted_blocks": p}
		},
	}))
	defer srv.Close()
	l := &ProcLeaf{HTTPAddr: strings.TrimPrefix(srv.URL, "http://")}
	rec, err := l.Recovery()
	if err != nil {
		t.Fatal(err)
	}
	if want := (ProcRecovery{Path: "shm-view", ServedFromShm: 8}); rec != want {
		t.Fatalf("recovery = %+v, want %+v", rec, want)
	}
	promoted.Store(8)
	if rec, err = l.Recovery(); err != nil {
		t.Fatal(err)
	}
	if want := (ProcRecovery{Path: "shm-view", PromotedBlocks: 8}); rec != want {
		t.Errorf("after the promotion drained: recovery = %+v, want %+v", rec, want)
	}
}
