package scuba_test

import (
	"testing"

	"scuba"
)

// TestPublicAPIRoundTrip exercises the facade end to end: ingest through
// the public constructors, query, restart through shared memory, query
// again.
func TestPublicAPIRoundTrip(t *testing.T) {
	cfg := scuba.LeafConfig{
		ID:           0,
		Shm:          scuba.ShmOptions{Dir: t.TempDir(), Namespace: "api-test"},
		DiskRoot:     t.TempDir(),
		MemoryBudget: 1 << 30,
	}
	l, err := scuba.NewLeaf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Start(); err != nil {
		t.Fatal(err)
	}

	gen := scuba.ServiceLogs(1, 1700000000)
	if err := l.AddRows("service_logs", gen.NextBatch(5000)); err != nil {
		t.Fatal(err)
	}

	q := &scuba.Query{
		Table: "service_logs", From: 0, To: 1 << 40,
		Filters:      []scuba.Filter{{Column: "status", Op: scuba.OpGe, Int: 500}},
		Aggregations: []scuba.Aggregation{{Op: scuba.AggCount}, {Op: scuba.AggP99, Column: "latency_ms"}},
		GroupBy:      []string{"service"},
		Limit:        5,
	}
	res, err := l.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	before := res.Rows(q)
	if len(before) == 0 {
		t.Fatal("no error rows found in workload")
	}
	if out := scuba.FormatResult(q, before); out == "" {
		t.Error("empty formatted result")
	}

	info, err := l.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if !info.ToShm || info.BytesCopied == 0 {
		t.Errorf("shutdown info = %+v", info)
	}

	l2, err := scuba.NewLeaf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Start(); err != nil {
		t.Fatal(err)
	}
	if l2.Recovery().Path != scuba.RecoveryMemory {
		t.Fatalf("recovery path = %v", l2.Recovery().Path)
	}
	res2, err := l2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	after := res2.Rows(q)
	if len(after) != len(before) {
		t.Fatalf("groups %d -> %d across restart", len(before), len(after))
	}
	for i := range before {
		if before[i].Values[0] != after[i].Values[0] {
			t.Errorf("group %d count %v -> %v", i, before[i].Values[0], after[i].Values[0])
		}
	}
}

func TestPublicClusterAndSim(t *testing.T) {
	c, err := scuba.NewCluster(scuba.ClusterConfig{
		Machines:            2,
		LeavesPerMachine:    2,
		ShmDir:              t.TempDir(),
		DiskRoot:            t.TempDir(),
		Namespace:           "api-test",
		MemoryBudgetPerLeaf: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := scuba.NewPlacer(c.Targets(), 1)
	gen := scuba.ErrorEvents(2, 1000)
	for i := 0; i < 10; i++ {
		if _, err := p.Place("error_events", gen.NextBatch(100)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := c.Rollover(scuba.RolloverConfig{BatchFraction: 0.25, UseShm: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Recoveries[scuba.RecoveryMemory]; got != 4 {
		t.Errorf("memory recoveries = %d", got)
	}
	q := &scuba.Query{Table: "error_events", From: 0, To: 1 << 40,
		Aggregations: []scuba.Aggregation{{Op: scuba.AggCount}}}
	res, err := c.NewAggregator().Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if rows := res.Rows(q); rows[0].Values[0] != 1000 {
		t.Errorf("count = %v", rows[0].Values[0])
	}

	// The calibrated simulator is reachable from the facade.
	params := scuba.DefaultSimParams()
	disk := params.SimulateRollover(false)
	mem := params.SimulateRollover(true)
	if disk.Total <= mem.Total {
		t.Errorf("disk %v should exceed shm %v", disk.Total, mem.Total)
	}
	if a := scuba.WeeklyFullAvailability(disk.Total); a > 0.95 {
		t.Errorf("disk weekly availability = %v", a)
	}
}
