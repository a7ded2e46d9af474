package aggregator

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"scuba/internal/metrics"
	"scuba/internal/obs"
	"scuba/internal/query"
	"scuba/internal/shard"
)

// shardFake is a shard-capable fake leaf: it records every shard-scoped call
// and answers one row per shard so merges are checkable by count.
type shardFake struct {
	mu    sync.Mutex
	calls [][]int
	full  int // whole-table (non-shard) queries received
	delay time.Duration
	err   error
}

func (f *shardFake) QueryShards(q *query.Query, shards []int, tc obs.TraceContext) (*query.Result, *obs.ExecStats, error) {
	f.mu.Lock()
	if len(shards) == 0 {
		f.full++
		f.mu.Unlock()
		return &query.Result{}, nil, nil
	}
	f.calls = append(f.calls, append([]int(nil), shards...))
	f.mu.Unlock()
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	if f.err != nil {
		return nil, nil, f.err
	}
	res := &query.Result{}
	res.RowsScanned = int64(len(shards)) // one row per shard, checkable after merge
	return res, &obs.ExecStats{Table: q.Table, ShardsServed: len(shards)}, nil
}

func (f *shardFake) shardsSeen() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	var all []int
	for _, c := range f.calls {
		all = append(all, c...)
	}
	sort.Ints(all)
	return all
}

func shardedAgg(t *testing.T, n, replication, numShards int) (*Aggregator, []*shardFake, *shard.Router) {
	t.Helper()
	fakes := make([]*shardFake, n)
	targets := make([]LeafTarget, n)
	leaves := make([]shard.Leaf, n)
	labels := make([]string, n)
	for i := range fakes {
		fakes[i] = &shardFake{}
		targets[i] = fakes[i]
		leaves[i] = shard.Leaf{Name: fmt.Sprintf("leaf%d", i), Machine: i / 2}
		labels[i] = leaves[i].Name
	}
	r := shard.NewRouter(shard.NewMap(leaves, replication, numShards))
	a := New(targets)
	a.Router = r
	a.Labels = labels
	return a, fakes, r
}

func countQ(table string) *query.Query {
	return &query.Query{Table: table, From: 0, To: 1 << 40,
		Aggregations: []query.Aggregation{{Op: query.AggCount}}}
}

// TestShardRoutingOnlyOwners checks the tentpole routing invariant: each leaf
// receives exactly the shards the map assigns it, their union covers the
// table, and the merged result reports full shard coverage.
func TestShardRoutingOnlyOwners(t *testing.T) {
	a, fakes, r := shardedAgg(t, 4, 2, 8)
	res, err := a.Query(countQ("events"))
	if err != nil {
		t.Fatal(err)
	}
	asn := r.Assign("events")
	var covered int
	for i, f := range fakes {
		want := append([]int(nil), asn.PerLeaf[i]...)
		sort.Ints(want)
		got := f.shardsSeen()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("leaf%d served shards %v, assignment says %v", i, got, want)
		}
		if f.full != 0 {
			t.Fatalf("leaf%d got %d whole-table queries under shard routing", i, f.full)
		}
		covered += len(got)
	}
	if covered != 8 {
		t.Fatalf("shards covered = %d, want 8", covered)
	}
	if res.ShardsTotal != 8 || res.ShardsAnswered != 8 {
		t.Fatalf("coverage %d/%d, want 8/8", res.ShardsAnswered, res.ShardsTotal)
	}
	if res.ShardCoverage() != 1 {
		t.Fatalf("ShardCoverage = %v, want 1", res.ShardCoverage())
	}
	// One row per shard survived the merge — no double-counting.
	if res.RowsScanned != 8 {
		t.Fatalf("merged RowsScanned = %d, want 8", res.RowsScanned)
	}
}

// TestShardFailoverOnDraining drains one leaf and checks that no query ever
// reaches it while coverage stays complete: every one of its shards is served
// by a replica (R=2 over 4 machines).
func TestShardFailoverOnDraining(t *testing.T) {
	a, fakes, r := shardedAgg(t, 8, 2, 16)
	r.SetStatus(3, shard.StatusDraining)
	res, err := a.Query(countQ("events"))
	if err != nil {
		t.Fatal(err)
	}
	if got := fakes[3].shardsSeen(); len(got) != 0 {
		t.Fatalf("draining leaf3 was queried for shards %v", got)
	}
	if fakes[3].full != 0 {
		t.Fatalf("draining leaf3 got a whole-table query")
	}
	if res.ShardsAnswered != res.ShardsTotal || res.ShardsTotal != 16 {
		t.Fatalf("coverage %d/%d after drain, want 16/16", res.ShardsAnswered, res.ShardsTotal)
	}
	// Recover: after reactivation the primary serves again.
	r.SetStatus(3, shard.StatusActive)
	fakes[3].mu.Lock()
	fakes[3].calls = nil
	fakes[3].mu.Unlock()
	if _, err := a.Query(countQ("events")); err != nil {
		t.Fatal(err)
	}
	asn := r.Assign("events")
	if len(asn.PerLeaf[3]) > 0 && len(fakes[3].shardsSeen()) == 0 {
		t.Fatal("reactivated leaf3 owns shards but was not queried")
	}
}

// TestShardCoverageLossWithoutReplicas pins the replica-less floor: with R=1
// a drained leaf's shards are simply unserved, and the result, the trace, and
// the metrics all report the same partial coverage (the satellite-4
// reconciliation, shard edition).
func TestShardCoverageLossWithoutReplicas(t *testing.T) {
	a, _, r := shardedAgg(t, 4, 1, 12)
	a.Metrics = metrics.NewRegistry()
	recorded := traced(a, obs.TracerOptions{})
	r.SetStatus(2, shard.StatusDraining)
	lost := len(r.Assign("events").PerLeaf[2]) // shards leaf2 would have served
	asn := r.Assign("events")
	if len(asn.Unserved) == 0 {
		t.Skip("leaf2 owns no shard of this table; hash moved them all elsewhere")
	}
	res, err := a.Query(countQ("events"))
	if err != nil {
		t.Fatal(err)
	}
	_ = lost
	if res.ShardsTotal != 12 {
		t.Fatalf("ShardsTotal = %d, want 12", res.ShardsTotal)
	}
	if res.ShardsAnswered != 12-len(asn.Unserved) {
		t.Fatalf("ShardsAnswered = %d, want %d", res.ShardsAnswered, 12-len(asn.Unserved))
	}
	snap := a.Metrics.Snapshot()
	if snap.Counters["query.shards_total"] != int64(res.ShardsTotal) ||
		snap.Counters["query.shards_answered"] != int64(res.ShardsAnswered) ||
		snap.Counters["query.shards_unserved"] != int64(len(asn.Unserved)) {
		t.Fatalf("metrics %d/%d/%d disagree with result %d/%d (unserved %d)",
			snap.Counters["query.shards_total"], snap.Counters["query.shards_answered"],
			snap.Counters["query.shards_unserved"], res.ShardsTotal, res.ShardsAnswered, len(asn.Unserved))
	}
	traces := recorded()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	if root := traces[0].Root(); root.ShardsTotal != res.ShardsTotal || root.ShardsAnswered != res.ShardsAnswered {
		t.Fatalf("trace coverage %d/%d disagrees with result %d/%d",
			root.ShardsAnswered, root.ShardsTotal, res.ShardsAnswered, res.ShardsTotal)
	}
}

// TestCoverageReconciliationAbandonedLeaf is the satellite-4 regression test:
// one leaf is abandoned at the deadline, and the merged result, the recorded
// trace, and the metrics counters must all agree on leaf AND shard coverage —
// the dashboards and __system.traces can never tell different stories.
func TestCoverageReconciliationAbandonedLeaf(t *testing.T) {
	a, fakes, r := shardedAgg(t, 4, 1, 8)
	a.Metrics = metrics.NewRegistry()
	recorded := traced(a, obs.TracerOptions{})
	a.LeafTimeout = 50 * time.Millisecond
	slow := -1
	for i := range fakes {
		if len(r.Assign("events").PerLeaf[i]) > 0 {
			slow = i
			break
		}
	}
	if slow < 0 {
		t.Fatal("no leaf owns any shard")
	}
	fakes[slow].delay = 2 * time.Second
	slowShards := len(r.Assign("events").PerLeaf[slow])

	res, err := a.Query(countQ("events"))
	if err != nil {
		t.Fatal(err)
	}
	servingLeaves := len(r.Assign("events").PerLeaf)
	if res.LeavesTotal != servingLeaves || res.LeavesAnswered != servingLeaves-1 {
		t.Fatalf("leaf coverage %d/%d, want %d/%d", res.LeavesAnswered, res.LeavesTotal, servingLeaves-1, servingLeaves)
	}
	if res.ShardsAnswered != 8-slowShards {
		t.Fatalf("ShardsAnswered = %d, want %d (abandoned leaf held %d)", res.ShardsAnswered, 8-slowShards, slowShards)
	}

	traces := recorded()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	tr, leaves := traces[0].Root(), traces[0].Leaves()
	if len(leaves) != res.LeavesTotal || leaves.Answered() != res.LeavesAnswered {
		t.Fatalf("trace leaves %d/%d != result %d/%d", leaves.Answered(), len(leaves), res.LeavesAnswered, res.LeavesTotal)
	}
	if tr.ShardsTotal != res.ShardsTotal || tr.ShardsAnswered != res.ShardsAnswered {
		t.Fatalf("trace shards %d/%d != result %d/%d", tr.ShardsAnswered, tr.ShardsTotal, res.ShardsAnswered, res.ShardsTotal)
	}
	answeredSpans, abandonedSpans := 0, 0
	for _, sp := range leaves {
		if sp.Err == "" {
			answeredSpans++
		} else if sp.Err == "abandoned at leaf deadline" {
			abandonedSpans++
		}
	}
	if answeredSpans != res.LeavesAnswered {
		t.Fatalf("answered spans = %d, result says %d", answeredSpans, res.LeavesAnswered)
	}
	if abandonedSpans != 1 {
		t.Fatalf("abandoned spans = %d, want 1", abandonedSpans)
	}
	snap := a.Metrics.Snapshot()
	if snap.Counters["query.leaves_total"] != int64(res.LeavesTotal) ||
		snap.Counters["query.leaves_answered"] != int64(res.LeavesAnswered) ||
		snap.Counters["query.leaves_abandoned"] != 1 ||
		snap.Counters["query.shards_answered"] != int64(res.ShardsAnswered) {
		t.Fatalf("metrics disagree with result: %+v vs leaves %d/%d shards %d",
			snap.Counters, res.LeavesAnswered, res.LeavesTotal, res.ShardsAnswered)
	}
}

// TestShardSpansCarryShardLists checks traces label each leaf span with the
// shards it was asked for, so a trace shows the routing decision.
func TestShardSpansCarryShardLists(t *testing.T) {
	a, _, r := shardedAgg(t, 4, 2, 8)
	recorded := traced(a, obs.TracerOptions{})
	if _, err := a.Query(countQ("events")); err != nil {
		t.Fatal(err)
	}
	asn := r.Assign("events")
	spans := recorded()[0].Leaves()
	if len(spans) != len(asn.PerLeaf) {
		t.Fatalf("spans = %d, serving leaves = %d", len(spans), len(asn.PerLeaf))
	}
	for _, sp := range spans {
		if len(sp.Shards) == 0 {
			t.Fatalf("span %q has no shard list", sp.Leaf)
		}
	}
}

// TestShardQueryFailoverOnDeadLeaf covers the routing race a rolling restart
// creates: a query planned before the drain flip hits a dead primary. The
// aggregator must re-fetch that slot's shards from replicas — shard coverage
// stays full, leaf coverage shows the dip, and the span records the failover.
func TestShardQueryFailoverOnDeadLeaf(t *testing.T) {
	a, fakes, r := shardedAgg(t, 4, 2, 8)
	recorded := traced(a, obs.TracerOptions{})
	dead := -1
	for i := range fakes {
		if len(r.Assign("events").PerLeaf[i]) > 0 {
			dead = i
			break
		}
	}
	fakes[dead].err = fmt.Errorf("leaf restarting")
	deadShards := len(r.Assign("events").PerLeaf[dead])

	res, err := a.Query(countQ("events"))
	if err != nil {
		t.Fatal(err)
	}
	if res.ShardsAnswered != 8 {
		t.Fatalf("shard coverage %d/8 after failover, want 8/8", res.ShardsAnswered)
	}
	if res.LeavesAnswered != res.LeavesTotal-1 {
		t.Fatalf("leaf coverage %d/%d, want the dead leaf unanswered", res.LeavesAnswered, res.LeavesTotal)
	}
	// All 8 shards' rows present exactly once (replicas answered the dead
	// leaf's shards, nobody double-counted).
	if res.RowsScanned != 8 {
		t.Fatalf("RowsScanned = %d, want 8", res.RowsScanned)
	}
	tr := recorded()[0]
	if tr.Root().ShardsAnswered != 8 || tr.Leaves().Answered() != res.LeavesAnswered {
		t.Fatalf("trace coverage %d shards %d leaves disagrees with result", tr.Root().ShardsAnswered, tr.Leaves().Answered())
	}
	found := false
	for _, sp := range tr.Leaves() {
		if strings.Contains(sp.Err, "failed over to replicas") {
			found = true
			if !strings.Contains(sp.Err, fmt.Sprintf("%d/%d shards", deadShards, deadShards)) {
				t.Fatalf("span failover note = %q, want %d/%d shards", sp.Err, deadShards, deadShards)
			}
		}
	}
	if !found {
		t.Fatal("no span records the failover")
	}
}

// hookShard lets a test fail specific QueryShards calls (by inspecting the
// requested shards) while delegating everything else to shardFake.
type hookShard struct {
	shardFake
	hook func(shards []int) error
}

func (h *hookShard) QueryShards(q *query.Query, shards []int, tc obs.TraceContext) (*query.Result, *obs.ExecStats, error) {
	if err := h.hook(shards); err != nil {
		return nil, nil, err
	}
	return h.shardFake.QueryShards(q, shards, tc)
}

// TestShardQueryFailoverRetriesRestartedOwner pins the multi-pass failover:
// a slow query straddles two rollover batches, so the primary's scan dies
// with the first restart and the replica's failover attempt dies with the
// second. By then the primary is back ACTIVE, and a re-plan against fresh
// shard-map status must recover the shards instead of reporting them
// missing.
func TestShardQueryFailoverRetriesRestartedOwner(t *testing.T) {
	leaves := []shard.Leaf{{Name: "leaf0", Machine: 0}, {Name: "leaf1", Machine: 1}}
	r := shard.NewRouter(shard.NewMap(leaves, 2, 4))
	asn := r.Assign("events")
	own1 := fmt.Sprint(append([]int(nil), asn.PerLeaf[1]...))

	var failed0, failed1 sync.Once
	var died0, died1 bool
	h0 := &hookShard{hook: func(shards []int) error {
		// The primary call dies (leaf killed mid-scan); later calls succeed
		// (the restarted process serves the restored data).
		var err error
		failed0.Do(func() { died0 = true; err = fmt.Errorf("leaf0 restarting") })
		return err
	}}
	h1 := &hookShard{hook: func(shards []int) error {
		// Fail only the failover fetch of leaf0's shards (the second batch
		// kills this leaf mid-scan too); its own primary slot succeeds.
		s := fmt.Sprint(shards)
		var err error
		if s != own1 {
			failed1.Do(func() { died1 = true; err = fmt.Errorf("leaf1 restarting") })
		}
		return err
	}}
	a := New([]LeafTarget{h0, h1})
	a.Router = r
	a.Labels = []string{"leaf0", "leaf1"}

	res, err := a.Query(countQ("events"))
	if err != nil {
		t.Fatal(err)
	}
	if !died0 || !died1 {
		t.Fatalf("harness bug: kill hooks fired = %v/%v, want both", died0, died1)
	}
	if res.ShardsAnswered != 4 {
		t.Fatalf("shard coverage %d/4 after double failover, want 4/4", res.ShardsAnswered)
	}
	// Every shard's rows present exactly once: the retried shards were not
	// double-merged with any earlier partial.
	if res.RowsScanned != 4 {
		t.Fatalf("RowsScanned = %d, want 4", res.RowsScanned)
	}
}
