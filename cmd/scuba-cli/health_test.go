package main

import (
	"testing"
	"time"

	"scuba"
	"scuba/internal/aggregator"
	"scuba/internal/metrics"
	"scuba/internal/shard"
	"scuba/internal/wire"
)

// healthCluster is one in-process leaf behind an aggregator server, holding
// two __system.metrics snapshots of one leaf source — the previous
// incarnation's (many queries, recovered from disk) and, ten seconds later,
// the current one's (its counters started again at zero, recovered from
// memory) — and one of the aggregator's own.
func healthCluster(t *testing.T, source string) (*aggregator.Aggregator, *scuba.Client) {
	t.Helper()
	l, err := scuba.NewLeaf(scuba.LeafConfig{
		Shm:      scuba.ShmOptions{Dir: t.TempDir(), Namespace: "health"},
		DiskRoot: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Start(); err != nil {
		t.Fatal(err)
	}
	now := time.Now().Unix()
	for _, snap := range []struct {
		at       int64
		queries  int64
		recovery string
	}{{now - 20, 5000, "leaf.recovery.disk"}, {now - 10, 3, "leaf.recovery.memory"}} {
		rows := scuba.TelemetrySnapshotRows(metrics.Snapshot{
			Counters: map[string]int64{"query.exec.count": snap.queries},
			Gauges:   map[string]int64{"leaf.rows": 1000, snap.recovery: 1},
		}, source, snap.at)
		if err := l.AddRows(scuba.SystemMetricsTable, rows); err != nil {
			t.Fatal(err)
		}
	}
	// The aggregator's own snapshot carries the trace counters and no leaf_rows.
	aggSnap := metrics.Snapshot{Counters: map[string]int64{"trace.count": 7, "trace.slow": 2}}
	if err := l.AddRows(scuba.SystemMetricsTable, scuba.TelemetrySnapshotRows(aggSnap, "aggd", now-5)); err != nil {
		t.Fatal(err)
	}
	agg := aggregator.New([]aggregator.LeafTarget{l})
	srv, err := wire.NewAggServerOver(agg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c := scuba.DialLeaf(srv.Addr())
	t.Cleanup(func() { c.Close() })
	return agg, c
}

// After a restart health reports the new incarnation: the newest snapshot by
// row time, not the one with the largest cumulative query count.
func TestHealthReportsTheNewestIncarnation(t *testing.T) {
	const source = "127.0.0.1:8001"
	agg, c := healthCluster(t, source)
	rep, err := gatherHealth(c, "agg", 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Leaves) != 1 {
		t.Fatalf("leaves = %+v, want one", rep.Leaves)
	}
	h := rep.Leaves[0]
	if h.Leaf != source || h.Recovery != "memory" || h.Queries != 3 || h.Rows != 1000 {
		t.Fatalf("health = %+v, want %s recovered from memory with 3 queries and 1000 rows", h, source)
	}
	if rep.TracedQueries != 7 || rep.SlowQueries != 2 {
		t.Fatalf("traced / slow = %v / %v, want 7 / 2 from the aggregator's snapshot", rep.TracedQueries, rep.SlowQueries)
	}
	// An aggregator that does not route by shard has every leaf ACTIVE; one
	// that does reports the leaf's status in its live map.
	if h.Status != "ACTIVE" || rep.Active != 1 {
		t.Fatalf("unrouted status = %q, active = %d", h.Status, rep.Active)
	}
	router := wire.ShardRouting(agg, []string{source}, nil, 1, 0)
	if err := router.SetStatusByName(source, shard.StatusDraining); err != nil {
		t.Fatal(err)
	}
	if rep, err = gatherHealth(c, "agg", 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(rep.Leaves) != 1 || rep.Leaves[0].Status != "DRAINING" || rep.Active != 0 {
		t.Fatalf("routed health = %+v, want the leaf DRAINING", rep)
	}
}
