package scuba_test

// The §5 availability invariant as a test: while a rolling restart upgrades
// every real scubad process in the cluster, a continuous query load must
// keep answering — with shard coverage never below 1 − BatchFraction (and,
// with R=2 replicas and a conflict-aware batch picker, in practice never
// below 100%) and every result byte-identical to the pre-rollover baseline.

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"scuba"
)

// buildScubadBinary compiles scubad once per test into a temp dir.
func buildScubadBinary(t *testing.T) string {
	t.Helper()
	bin, err := scuba.BuildScubad(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// startRolloverCluster boots machines x leavesPer scubad subprocesses with
// R=2 shard routing and loads rows of service_logs through the dual-writing
// placer.
func startRolloverCluster(t *testing.T, machines, leavesPer, rows int, opts ...func(*scuba.ProcConfig)) *scuba.ProcCluster {
	t.Helper()
	cfg := scuba.ProcConfig{
		BinPath:          buildScubadBinary(t),
		Machines:         machines,
		LeavesPerMachine: leavesPer,
		Replication:      2,
		WorkDir:          t.TempDir(),
		Namespace:        "avail",
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	pc, err := scuba.StartProcCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pc.Close)

	placer := pc.NewShardedPlacer()
	gen := scuba.ServiceLogs(7, 1700000000)
	for sent := 0; sent < rows; sent += 1000 {
		if _, err := placer.Place("service_logs", gen.NextBatch(1000)); err != nil {
			t.Fatal(err)
		}
	}
	if st := placer.Stats(); st.MissedCopies != 0 {
		t.Fatalf("%d replica copies missed while loading a healthy cluster", st.MissedCopies)
	}
	return pc
}

func rolloverQuery() *scuba.Query {
	return &scuba.Query{Table: "service_logs", From: 0, To: 1 << 62,
		Aggregations: []scuba.Aggregation{{Op: scuba.AggCount}, {Op: scuba.AggSum, Column: "latency_ms"}},
		GroupBy:      []string{"service"}}
}

// runRolloverAvailability is the keystone body, parameterized so CI's smoke
// job can run a smaller cluster than the full 16-leaf drill.
func runRolloverAvailability(t *testing.T, machines, leavesPer int, batchFraction float64, rows int) {
	pc := startRolloverCluster(t, machines, leavesPer, rows)
	n := machines * leavesPer
	q := rolloverQuery()
	agg := pc.AggClient()

	baseline, err := agg.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if baseline.ShardCoverage() != 1 {
		t.Fatalf("baseline shard coverage %d/%d", baseline.ShardsAnswered, baseline.ShardsTotal)
	}
	baseRows := baseline.Rows(q)
	if len(baseRows) == 0 {
		t.Fatal("baseline returned no rows")
	}

	probe := scuba.StartAvailabilityProbe(agg, scuba.ProbeConfig{
		Query: q,
		Check: func(res *scuba.Result) error {
			if !reflect.DeepEqual(res.Rows(q), baseRows) {
				return errors.New("result drifted from baseline")
			}
			return nil
		},
	})
	rep, err := pc.Rollover(scuba.RolloverConfig{
		BatchFraction: batchFraction,
		MaxPerMachine: 1,
		UseShm:        true,
		KillTimeout:   time.Minute,
		Tables:        []string{"service_logs"},
	})
	avail := probe.Stop()
	if err != nil {
		t.Fatalf("rollover: %v", err)
	}

	// Every process restarted through shared memory; none were left behind.
	if got := rep.Recoveries[scuba.RecoveryMemory]; got != n {
		t.Errorf("memory recoveries = %d, want %d (report: %+v)", got, n, rep)
	}
	if len(rep.Quarantined) != 0 {
		t.Errorf("quarantined leaves: %v", rep.Quarantined)
		for _, r := range rep.Restarts {
			if r.Err != "" { // why the slot was left without a serving process
				t.Logf("leaf %d (%s): killed %v, crashed %v after %v: %s", r.Leaf, r.Name, r.Killed, r.Crashed, r.Duration, r.Err)
			}
		}
	}

	// The availability invariant: queries kept answering, none were wrong,
	// and coverage never dropped below 1 − BatchFraction. (With replicas
	// and the conflict-aware batch picker it should in fact stay at 1.)
	if avail.Queries == 0 {
		t.Fatal("no queries completed during the rollover")
	}
	if avail.Errors != 0 {
		t.Errorf("%d of %d queries failed during the rollover", avail.Errors, avail.Queries)
	}
	if avail.Wrong != 0 {
		t.Errorf("%d of %d queries returned non-baseline results", avail.Wrong, avail.Queries)
	}
	floor := 1 - batchFraction
	if avail.MinShardCoverage < floor {
		t.Errorf("min shard coverage %.3f below the 1-BatchFraction floor %.3f",
			avail.MinShardCoverage, floor)
	}
	t.Logf("%d leaves, %d queries during rollover (%v): min shard coverage %.1f%%, min leaf coverage %.1f%%, p50 %v, p99 %v",
		n, avail.Queries, rep.Duration.Round(time.Millisecond),
		100*avail.MinShardCoverage, 100*avail.MinLeafCoverage, avail.P50, avail.P99)

	// Steady state afterwards: the shard map is fully ACTIVE and queries
	// are byte-identical at full coverage.
	_, statuses, _, err := agg.ShardMap()
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range statuses {
		if st != scuba.ShardActive {
			t.Errorf("leaf %d ended the rollover %v", i, st)
		}
	}
	after, err := agg.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if after.ShardCoverage() != 1 {
		t.Errorf("post-rollover shard coverage %d/%d", after.ShardsAnswered, after.ShardsTotal)
	}
	if !reflect.DeepEqual(after.Rows(q), baseRows) {
		t.Error("post-rollover result differs from baseline")
	}
}

// TestRolloverAvailability is the full drill: 4 machines x 4 leaf
// subprocesses, R=2, 25% of leaves restarting per batch under continuous
// query load.
func TestRolloverAvailability(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping 16-subprocess rollover drill")
	}
	runRolloverAvailability(t, 4, 4, 0.25, 20000)
}

// TestRolloverAvailabilitySmoke is the 2x2 variant CI's test job runs on
// every push.
func TestRolloverAvailabilitySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping subprocess rollover smoke")
	}
	runRolloverAvailability(t, 2, 2, 0.25, 5000)
}

// TestRolloverDiskPathAvailability: even with shared memory disabled (the
// §4.1 baseline, every restart paying disk recovery), replicas keep shard
// coverage at the floor and results correct — only latency suffers.
func TestRolloverDiskPathAvailability(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping subprocess rollover drill")
	}
	// WAL off: this drill measures the pre-WAL disk-translate baseline, and
	// with a log present even a disk-drained replacement would recover via
	// WAL replay instead.
	pc := startRolloverCluster(t, 2, 2, 5000, func(cfg *scuba.ProcConfig) { cfg.DisableWAL = true })
	q := rolloverQuery()
	agg := pc.AggClient()
	baseline, err := agg.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	baseRows := baseline.Rows(q)
	// The loader fills five of the table's eight shards, and a shard's owners
	// come from hashing leaf addresses — ephemeral ports, another map every
	// run — so now and then a leaf owns none of the five, holds no table and
	// has nothing to recover.
	held := make(map[int]int64)
	for _, l := range pc.Leaves() {
		st, err := l.Client().Stats()
		if err != nil {
			t.Fatal(err)
		}
		held[l.ID] = st.Rows
	}

	// Let the write-behind sync finish so disk recovery is complete: the
	// disk path's correctness depends on the backup, not on shm.
	time.Sleep(time.Second)

	probe := scuba.StartAvailabilityProbe(agg, scuba.ProbeConfig{
		Query: q,
		Check: func(res *scuba.Result) error {
			if !reflect.DeepEqual(res.Rows(q), baseRows) {
				return errors.New("result drifted from baseline")
			}
			return nil
		},
	})
	rep, err := pc.Rollover(scuba.RolloverConfig{
		BatchFraction: 0.25,
		UseShm:        false,
		KillTimeout:   time.Minute,
		Tables:        []string{"service_logs"},
	})
	avail := probe.Stop()
	if err != nil {
		t.Fatalf("rollover: %v", err)
	}
	// Every leaf restarted, and every one that held rows came back from disk:
	// none through shared memory, none empty-handed.
	if len(rep.Restarts) != len(pc.Leaves()) || len(rep.Quarantined) != 0 {
		t.Errorf("%d of %d leaves restarted, quarantined %v", len(rep.Restarts), len(pc.Leaves()), rep.Quarantined)
	}
	for _, rs := range rep.Restarts {
		want := scuba.RecoveryDisk
		if held[rs.Leaf] == 0 {
			want = scuba.RecoveryNone
		}
		if rs.Recovery != want {
			t.Errorf("leaf %d held %d rows and recovered by %q, want %q (rows per leaf: %v)", rs.Leaf, held[rs.Leaf], rs.Recovery, want, held)
		}
	}
	if avail.Wrong != 0 {
		t.Errorf("%d queries returned non-baseline results on the disk path", avail.Wrong)
	}
	if avail.MinShardCoverage < 0.75 {
		t.Errorf("min shard coverage %.3f below floor 0.75", avail.MinShardCoverage)
	}
	t.Logf("disk-path rollover: %v, min coverage %.1f%%, p99 %v, rows per leaf %v, recoveries %v",
		rep.Duration.Round(time.Millisecond), 100*avail.MinShardCoverage, avail.P99, held, rep.Recoveries)
}
