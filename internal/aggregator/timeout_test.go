package aggregator

import (
	"testing"
	"time"

	"scuba/internal/fault"
	"scuba/internal/metrics"
	"scuba/internal/query"
)

// slowTarget answers after a delay — a SIGSTOP'd or browned-out leaf.
type slowTarget struct {
	inner querier
	delay time.Duration
}

func (s slowTarget) Query(q *query.Query) (*query.Result, error) {
	time.Sleep(s.delay)
	return s.inner.Query(q)
}

func TestLeafTimeoutAbandonsStragglers(t *testing.T) {
	fast0, fast1 := newLeaf(t, 0), newLeaf(t, 1)
	ingest(t, fast0, 100, 0)
	ingest(t, fast1, 100, 5000)
	hung := newLeaf(t, 2)
	ingest(t, hung, 100, 10000)

	reg := metrics.NewRegistry()
	a := New([]LeafTarget{fast0, fast1, plain{slowTarget{inner: hung, delay: 2 * time.Second}}})
	a.LeafTimeout = 150 * time.Millisecond
	a.Metrics = reg

	q := countQuery()
	start := time.Now()
	res, err := a.Query(q)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > time.Second {
		t.Fatalf("query took %v; LeafTimeout did not bound the straggler", elapsed)
	}
	rows := res.Rows(q)
	if rows[0].Values[0] != 200 {
		t.Errorf("count = %v, want the two fast leaves' rows", rows[0].Values[0])
	}
	if res.LeavesAnswered != 2 || res.LeavesTotal != 3 {
		t.Errorf("coverage = %d/%d, want 2/3", res.LeavesAnswered, res.LeavesTotal)
	}
	if got := reg.Counter("query.leaves_abandoned").Value(); got != 1 {
		t.Errorf("leaves_abandoned = %d, want 1", got)
	}

	// The straggler's late answer from the first query must not corrupt a
	// subsequent one: with the timeout off, full coverage comes back.
	a.LeafTimeout = 0
	res, err = a.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.LeavesAnswered != 3 || res.Rows(q)[0].Values[0] != 300 {
		t.Errorf("recovered query = %d answered, count %v", res.LeavesAnswered, res.Rows(q)[0].Values[0])
	}
}

func TestZeroLeafTimeoutWaitsForever(t *testing.T) {
	l := newLeaf(t, 0)
	ingest(t, l, 50, 0)
	a := New([]LeafTarget{plain{slowTarget{inner: l, delay: 100 * time.Millisecond}}})
	res, err := a.Query(countQuery())
	if err != nil {
		t.Fatal(err)
	}
	if res.LeavesAnswered != 1 {
		t.Errorf("answered = %d", res.LeavesAnswered)
	}
}

// TestBrownoutViaFaultRegistry drives the same scenario through the fault
// harness instead of a wrapper type: one leaf of three hangs on an armed
// per-leaf delay, and coverage reports 2/3 inside the deadline.
func TestBrownoutViaFaultRegistry(t *testing.T) {
	t.Cleanup(fault.Reset)
	fault.Reset()
	leaves := make([]LeafTarget, 3)
	for i := range leaves {
		l := newLeaf(t, i)
		ingest(t, l, 100, int64(i*1000))
		leaves[i] = l
	}
	fault.Arm(fault.Point{Site: fault.PerLeaf(fault.SiteLeafQuery, 1), Action: fault.ActDelay, Delay: time.Second})

	a := New(leaves)
	a.LeafTimeout = 100 * time.Millisecond
	res, err := a.Query(countQuery())
	if err != nil {
		t.Fatal(err)
	}
	if res.LeavesAnswered != 2 || res.LeavesTotal != 3 {
		t.Errorf("coverage = %d/%d, want 2/3", res.LeavesAnswered, res.LeavesTotal)
	}
	fault.Reset()
	// Wait out the straggler so its late answer is consumed before the
	// next run reuses leaf state.
	time.Sleep(1100 * time.Millisecond)
	res, err = a.Query(countQuery())
	if err != nil {
		t.Fatal(err)
	}
	if res.LeavesAnswered != 3 {
		t.Errorf("post-brownout coverage = %d/3", res.LeavesAnswered)
	}
}
