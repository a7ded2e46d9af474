package cluster

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"scuba/internal/leaf"
	"scuba/internal/query"
	"scuba/internal/rowblock"
	"scuba/internal/shard"
)

func newShardedCluster(t *testing.T, machines, leavesPerMachine, replication, numShards int) *Cluster {
	t.Helper()
	c, err := New(Config{
		Machines:            machines,
		LeavesPerMachine:    leavesPerMachine,
		ShmDir:              t.TempDir(),
		DiskRoot:            t.TempDir(),
		Namespace:           "test",
		MemoryBudgetPerLeaf: 1 << 30,
		Replication:         replication,
		NumShards:           numShards,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// loadSharded dual-writes rows through the cluster's sharded placer.
func loadSharded(t *testing.T, c *Cluster, totalRows int) {
	t.Helper()
	p := c.NewShardedPlacer()
	const batch = 50
	for sent := 0; sent < totalRows; sent += batch {
		rows := make([]rowblock.Row, batch)
		for i := range rows {
			rows[i] = rowblock.Row{Time: int64(1000 + sent + i), Cols: map[string]rowblock.Value{
				"service": rowblock.StringValue(fmt.Sprintf("svc-%d", (sent+i)%3)),
			}}
		}
		if _, err := p.Place("events", rows); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedClusterRolloverKeepsFullCoverage is the in-process version of
// the keystone: continuous queries during an R=2 rollover see 100% shard
// coverage and byte-identical results the whole way — the restarting
// primaries' shards serve from replicas.
func TestShardedClusterRolloverKeepsFullCoverage(t *testing.T) {
	c := newShardedCluster(t, 4, 2, 2, 16)
	loadSharded(t, c, 1000)
	agg := c.NewAggregator()
	q := &query.Query{Table: "events", From: 0, To: 1 << 40,
		Aggregations: []query.Aggregation{{Op: query.AggCount}},
		GroupBy:      []string{"service"}}
	baseline, err := agg.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if baseline.ShardsAnswered != 16 {
		t.Fatalf("baseline coverage %d/16", baseline.ShardsAnswered)
	}
	baseRows := baseline.Rows(q)

	stop := make(chan struct{})
	var wrong, partial, queries atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			res, err := agg.Query(q)
			if err != nil {
				continue
			}
			queries.Add(1)
			if res.ShardCoverage() < 1 {
				partial.Add(1)
			}
			if !reflect.DeepEqual(res.Rows(q), baseRows) {
				wrong.Add(1)
			}
		}
	}()

	rep, err := c.Rollover(RolloverConfig{BatchFraction: 0.25, UseShm: true, MaxPerMachine: 1, Tables: []string{"events"}})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Recoveries[leaf.RecoveryMemory]; got != c.Size() {
		t.Fatalf("memory recoveries = %d, want %d", got, c.Size())
	}
	if queries.Load() == 0 {
		t.Fatal("no queries completed during the rollover")
	}
	if p := partial.Load(); p != 0 {
		t.Fatalf("%d of %d queries saw partial shard coverage despite R=2", p, queries.Load())
	}
	if w := wrong.Load(); w != 0 {
		t.Fatalf("%d of %d queries returned wrong results during rollover", w, queries.Load())
	}
	// The router must end with every leaf ACTIVE again.
	for i, st := range c.Router().Status() {
		if st != shard.StatusActive {
			t.Fatalf("leaf %d ended the rollover %v", i, st)
		}
	}
}
