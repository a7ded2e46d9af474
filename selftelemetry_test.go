package scuba_test

// The Scuba-on-Scuba keystone: a real subprocess cluster observes itself.
// Every leaf's own sink ingests its metrics snapshot — its facts among them —
// into __system.metrics, a rollover drill persists its restart timeline and
// the probe's coverage timeline into __system.rollover, and all of it is
// queried back through the same aggregator the drill was exercising. Because
// __system tables are plain leaf tables, a second rollover then proves the
// telemetry itself rides the shared-memory restart path: every row written
// before the restarts is still served after them.

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"scuba"
)

// countSystemRows runs a filtered count against a __system table through the
// aggregator and also returns how many leaves answered.
func countSystemRows(t *testing.T, agg *scuba.Client, table, event string) (float64, *scuba.Result) {
	t.Helper()
	q := &scuba.Query{
		Table:        table,
		From:         0,
		To:           1 << 62,
		Aggregations: []scuba.Aggregation{{Op: scuba.AggCount}},
	}
	if event != "" {
		q.Filters = []scuba.Filter{{Column: "event", Op: scuba.OpEq, Str: event}}
	}
	res, err := agg.Query(q)
	if err != nil {
		t.Fatalf("querying %s: %v", table, err)
	}
	rows := res.Rows(q)
	if len(rows) == 0 {
		return 0, res
	}
	return rows[0].Values[0], res
}

// waitForLeafSnapshots polls until n sources have written leaf_rows into
// __system.metrics, want snapshots in all, and returns per source the count
// of its snapshots and the largest leaf_rows any of them held.
func waitForLeafSnapshots(t *testing.T, agg *scuba.Client, n int, want int64) []scuba.ResultRow {
	t.Helper()
	q := &scuba.Query{
		Table:        scuba.SystemMetricsTable,
		From:         0,
		To:           1 << 62,
		Filters:      []scuba.Filter{{Column: "name", Op: scuba.OpEq, Str: "leaf_rows"}},
		GroupBy:      []string{"source"},
		Aggregations: []scuba.Aggregation{{Op: scuba.AggCount}, {Op: scuba.AggMax, Column: "value"}},
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		res, err := agg.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		rows := res.Rows(q)
		var got int64
		for _, r := range rows {
			got += int64(r.Values[0])
		}
		if len(rows) >= n && got >= want {
			return rows
		}
		if time.Now().After(deadline) {
			t.Fatalf("leaf snapshots after 10s: %d sources, %d snapshots; want %d, %d", len(rows), got, n, want)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// waitForRecoveryGauge polls until the newest second of one leaf's snapshots
// names exactly one recovery path, the wanted one: a restarted leaf's first
// snapshots can share a second with its predecessor's last.
func waitForRecoveryGauge(t *testing.T, agg *scuba.Client, source, want string) {
	t.Helper()
	q := &scuba.Query{
		Table: scuba.SystemMetricsTable,
		From:  0,
		To:    1 << 62,
		Filters: []scuba.Filter{
			{Column: "source", Op: scuba.OpEq, Str: source},
			{Column: "value", Op: scuba.OpEq, Int: 1, Float: 1},
		},
		GroupBy:           []string{"name"},
		TimeBucketSeconds: 1,
		Aggregations:      []scuba.Aggregation{{Op: scuba.AggCount}},
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		res, err := agg.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		newest, paths := "", []string{}
		for _, r := range res.Rows(q) { // bucket order
			if !strings.HasPrefix(r.Key[1], "leaf_recovery_") {
				continue
			}
			if r.Key[0] != newest {
				newest, paths = r.Key[0], nil
			}
			paths = append(paths, r.Key[1])
		}
		if len(paths) == 1 && paths[0] == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("leaf %s: newest snapshot says %v, /debug/recovery says %s", source, paths, want)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestSelfTelemetryAcrossRollover(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping subprocess self-telemetry drill")
	}
	pc, err := scuba.StartProcCluster(scuba.ProcConfig{
		BinPath:           buildScubadBinary(t),
		Machines:          2,
		LeavesPerMachine:  2,
		Replication:       2,
		WorkDir:           t.TempDir(),
		Namespace:         "seltel",
		TelemetryInterval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pc.Close)
	n := len(pc.Leaves())

	placer := pc.NewShardedPlacer()
	gen := scuba.ServiceLogs(7, 1700000000)
	for sent := 0; sent < 5000; sent += 1000 {
		if _, err := placer.Place("service_logs", gen.NextBatch(1000)); err != nil {
			t.Fatal(err)
		}
	}
	agg := pc.AggClient()

	// Phase 1: each leaf's own sink populates __system.metrics: every
	// snapshot carries that leaf's facts (leaf_rows, leaf_recovery_<path>).
	leafRows := waitForLeafSnapshots(t, agg, n, 1)

	// Each leaf must appear in its own snapshots with healthy vitals.
	if len(leafRows) != n {
		t.Fatalf("leaf snapshots cover %d leaves, want %d: %+v", len(leafRows), n, leafRows)
	}
	var snapshots int64
	for _, r := range leafRows {
		if r.Values[1] <= 0 {
			t.Errorf("leaf %s snapshotted with 0 rows of data", r.Key[0])
		}
		snapshots += int64(r.Values[0])
	}

	// Phase 2: rollover drill #1 under a correctness probe, then persist
	// both timelines as __system.rollover rows.
	q := rolloverQuery()
	baseline, err := agg.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	baseRows := baseline.Rows(q)
	probe := scuba.StartAvailabilityProbe(agg, scuba.ProbeConfig{
		Query: q,
		Check: func(res *scuba.Result) error {
			if !reflect.DeepEqual(res.Rows(q), baseRows) {
				return errors.New("result drifted from baseline")
			}
			return nil
		},
	})
	drillStart := time.Now()
	rep, err := pc.Rollover(scuba.RolloverConfig{
		BatchFraction: 0.25,
		MaxPerMachine: 1,
		UseShm:        true,
		KillTimeout:   time.Minute,
		Tables:        []string{"service_logs"},
	})
	avail := probe.Stop()
	if err != nil {
		t.Fatalf("rollover: %v", err)
	}
	if err := pc.Persist(rep.Rows("drill", drillStart)); err != nil {
		t.Fatalf("persisting rollover report: %v", err)
	}
	if err := pc.Persist(avail.Rows("drill", drillStart)); err != nil {
		t.Fatalf("persisting probe report: %v", err)
	}

	// Phase 3: reconcile the persisted timeline against the in-memory
	// reports, through the real aggregator.
	restarts, _ := countSystemRows(t, agg, scuba.SystemRolloverTable, "restart")
	if int(restarts) != len(rep.Restarts) {
		t.Errorf("__system.rollover restart rows = %v, want %d", restarts, len(rep.Restarts))
	}
	points, _ := countSystemRows(t, agg, scuba.SystemRolloverTable, "probe")
	if int(points) != len(avail.Points) {
		t.Errorf("__system.rollover probe rows = %v, want %d", points, len(avail.Points))
	}
	summaries, _ := countSystemRows(t, agg, scuba.SystemRolloverTable, "rollover_summary")
	if summaries != 1 {
		t.Errorf("rollover_summary rows = %v, want 1", summaries)
	}
	minCovQ := &scuba.Query{
		Table:        scuba.SystemRolloverTable,
		From:         0,
		To:           1 << 62,
		Filters:      []scuba.Filter{{Column: "event", Op: scuba.OpEq, Str: "probe"}},
		Aggregations: []scuba.Aggregation{{Op: scuba.AggMin, Column: "shard_coverage"}},
	}
	covRes, err := agg.Query(minCovQ)
	if err != nil {
		t.Fatal(err)
	}
	if rows := covRes.Rows(minCovQ); len(avail.Points) > 0 {
		if len(rows) == 0 {
			t.Fatal("no probe rows for min-coverage reconciliation")
		} else if got := rows[0].Values[0]; math.Abs(got-avail.MinShardCoverage) > 1e-9 {
			t.Errorf("persisted min shard coverage %v != probe's %v", got, avail.MinShardCoverage)
		}
	}
	// The drill itself was recorded: the leaves' snapshots keep accumulating,
	// and each leaf's newest one names the path its /debug/recovery reports.
	waitForLeafSnapshots(t, agg, n, snapshots+1)
	for _, l := range pc.Leaves() {
		rec, err := l.Recovery()
		if err != nil {
			t.Fatal(err)
		}
		if rec.Path == "" {
			t.Fatalf("leaf %s: /debug/recovery reports no path", l.Addr)
		}
		waitForRecoveryGauge(t, agg, l.Addr, "leaf_recovery_"+scuba.CanonicalMetricName(rec.Path))
	}

	// Phase 4: restart every leaf again. The telemetry written before these
	// restarts must still be served afterwards — __system tables ride the
	// shared-memory path like any other table.
	if _, err := pc.Rollover(scuba.RolloverConfig{
		BatchFraction: 0.25,
		MaxPerMachine: 1,
		UseShm:        true,
		KillTimeout:   time.Minute,
	}); err != nil {
		t.Fatalf("second rollover: %v", err)
	}
	restarts2, res2 := countSystemRows(t, agg, scuba.SystemRolloverTable, "restart")
	if int(restarts2) != len(rep.Restarts) {
		t.Errorf("restart rows after second rollover = %v, want %d (telemetry lost in restart)",
			restarts2, len(rep.Restarts))
	}
	if res2.LeavesAnswered != res2.LeavesTotal {
		t.Errorf("post-restart telemetry coverage %d/%d", res2.LeavesAnswered, res2.LeavesTotal)
	}
	points2, _ := countSystemRows(t, agg, scuba.SystemRolloverTable, "probe")
	if int(points2) != len(avail.Points) {
		t.Errorf("probe rows after second rollover = %v, want %d", points2, len(avail.Points))
	}
	t.Logf("self-telemetry: %d leaves, %v leaf snapshots, %d restart rows and %d probe points preserved across a full second rollover",
		n, snapshots, int(restarts2), int(points2))
}
