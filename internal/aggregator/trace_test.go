package aggregator

import (
	"errors"
	"sync"
	"testing"
	"time"

	"scuba/internal/fault"
	"scuba/internal/metrics"
	"scuba/internal/obs"
	"scuba/internal/query"
)

// traced gives a a tracer whose observer's span hook keeps every trace it
// files, and returns what the hook has seen so far, in order.
func traced(a *Aggregator, opts obs.TracerOptions) func() []obs.Trace {
	var mu sync.Mutex
	var seen []obs.Trace
	ob := obs.New(nil, nil)
	ob.OnSpans(func(tr obs.Trace) {
		mu.Lock()
		defer mu.Unlock()
		seen = append(seen, tr)
	})
	a.Tracer = ob.Tracer(opts)
	return func() []obs.Trace {
		mu.Lock()
		defer mu.Unlock()
		return append([]obs.Trace(nil), seen...)
	}
}

// TestTraceAssembly runs a traced query over in-process leaves and checks
// the assembled trace top to bottom.
func TestTraceAssembly(t *testing.T) {
	leaves := make([]LeafTarget, 3)
	for i := range leaves {
		l := newLeaf(t, i)
		ingest(t, l, 100, int64(i*1000))
		leaves[i] = l
	}
	reg := metrics.NewRegistry()
	a := New(leaves)
	a.Metrics = reg
	recorded := traced(a, obs.TracerOptions{})
	a.Labels = []string{"alpha", "", "gamma"} // middle one falls back

	res, err := a.Query(countQuery())
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsScanned != 300 {
		t.Fatalf("rows = %d, want 300", res.RowsScanned)
	}

	traces := recorded()
	if len(traces) != 1 {
		t.Fatalf("traces = %d, want 1", len(traces))
	}
	tr, spans := traces[0].Root(), traces[0].Leaves()
	if tr.TraceID == 0 || tr.SpanID == 0 || tr.Query == "" || tr.Duration <= 0 || tr.Table != "events" {
		t.Fatalf("trace root incomplete: %+v", tr)
	}
	if len(spans) != 3 || spans.Answered() != 3 || len(traces[0]) != 4 {
		t.Fatalf("coverage = %d/%d in %d spans, want 3/3 under one root", spans.Answered(), len(spans), len(traces[0]))
	}
	if spans[0].Leaf != "alpha" || spans[1].Leaf != "leaf1" || spans[2].Leaf != "gamma" {
		t.Fatalf("labels = %q/%q/%q", spans[0].Leaf, spans[1].Leaf, spans[2].Leaf)
	}
	seen := map[uint64]bool{tr.SpanID: true}
	var rows int64
	for _, sp := range spans {
		if sp.SpanID == 0 || seen[sp.SpanID] {
			t.Fatalf("span IDs not unique nonzero: %+v", spans)
		}
		seen[sp.SpanID] = true
		if sp.Err != "" || sp.Exec == nil {
			t.Fatalf("span unanswered: %+v", sp)
		}
		if sp.TraceID != tr.TraceID || sp.Parent != tr.SpanID || sp.Duration <= 0 || sp.Duration > tr.Duration ||
			sp.Start.Before(tr.Start) || sp.Recovery != sp.Exec.Recovery {
			t.Fatalf("leaf span does not hang under the root %+v: %+v", tr, sp)
		}
		if sp.Exec.SpanID != sp.SpanID || sp.Exec.Table != "events" || sp.Exec.Recovery == "" {
			t.Fatalf("exec stats wrong: %+v", sp.Exec)
		}
		rows += sp.Exec.RowsScanned
	}
	if rows != 300 {
		t.Fatalf("per-span rows sum = %d, want 300", rows)
	}
}

// TestUntracedWithoutTracer pins that a tracerless aggregator behaves
// exactly as before: no trace ID, leaves queried untraced.
func TestUntracedWithoutTracer(t *testing.T) {
	l := newLeaf(t, 7)
	ingest(t, l, 50, 0)
	spy := &contextSpy{LeafTarget: l}
	a := New([]LeafTarget{spy})
	if _, err := a.Query(countQuery()); err != nil {
		t.Fatal(err)
	}
	if len(spy.seen) != 1 || spy.seen[0] != (obs.TraceContext{}) {
		t.Fatalf("tracerless aggregator sent trace contexts %+v, want one zero", spy.seen)
	}
}

// contextSpy records the trace context of every query it forwards.
type contextSpy struct {
	LeafTarget
	seen []obs.TraceContext
}

func (s *contextSpy) QueryShards(q *query.Query, shards []int, tc obs.TraceContext) (*query.Result, *obs.ExecStats, error) {
	s.seen = append(s.seen, tc)
	return s.LeafTarget.QueryShards(q, shards, tc)
}

// TestParentTraceIDAdopted checks the aggregator-tree contract: a nonzero
// parent trace ID flows through instead of a fresh one.
func TestParentTraceIDAdopted(t *testing.T) {
	l := newLeaf(t, 8)
	ingest(t, l, 10, 0)
	a := New([]LeafTarget{l})
	recorded := traced(a, obs.TracerOptions{})

	parent := obs.TraceContext{TraceID: 12345, SpanID: 999}
	if _, err := a.QueryTraced(countQuery(), parent); err != nil {
		t.Fatal(err)
	}
	tr := recorded()[0]
	if tr.Root().TraceID != 12345 {
		t.Fatalf("parent trace ID not adopted: %+v", tr)
	}
	if spans := tr.Leaves(); len(spans) != 1 || spans[0].SpanID == 999 || tr.Root().SpanID == 999 {
		t.Fatalf("child must stamp its own span IDs: %+v", tr)
	}
	// The subtree hangs under the upstream's span for it.
	if tr.Root().Parent != 999 {
		t.Fatalf("subtree root's parent = %d, want the upstream leaf span 999", tr.Root().Parent)
	}
}

// TestErrorSpanRecorded checks that a failing leaf shows up as an
// unanswered span carrying the error while healthy leaves still answer.
func TestErrorSpanRecorded(t *testing.T) {
	good := newLeaf(t, 9)
	ingest(t, good, 20, 0)
	bad := plain{erroring{}}
	a := New([]LeafTarget{good, bad})
	recorded := traced(a, obs.TracerOptions{})

	res, err := a.Query(countQuery())
	if err != nil {
		t.Fatal(err)
	}
	if res.LeavesAnswered != 1 || res.LeavesTotal != 2 {
		t.Fatalf("coverage = %d/%d, want 1/2", res.LeavesAnswered, res.LeavesTotal)
	}
	spans := recorded()[0].Leaves()
	if spans.Answered() != 1 || len(spans) != 2 {
		t.Fatalf("trace coverage = %d/%d, want 1/2", spans.Answered(), len(spans))
	}
	sp := spans[1]
	if sp.Err == "" || sp.Exec != nil {
		t.Fatalf("error span wrong: %+v", sp)
	}
}

type erroring struct{}

func (erroring) Query(*query.Query) (*query.Result, error) {
	return nil, errors.New("leaf restarting")
}

// TestAbandonedSpanMarked checks that a leaf dropped at the fan-out
// deadline appears in the trace as unanswered with the abandonment reason —
// the trace explains exactly whose data a partial result is missing.
func TestAbandonedSpanMarked(t *testing.T) {
	t.Cleanup(fault.Reset)
	fault.Reset()
	fast := newLeaf(t, 10)
	ingest(t, fast, 20, 0)
	slow := newLeaf(t, 11)
	ingest(t, slow, 20, 0)
	// Delay only the second leaf far past the fan-out deadline.
	fault.Arm(fault.Point{Site: fault.PerLeaf(fault.SiteLeafQuery, 11), Action: fault.ActDelay, Delay: 2 * time.Second})

	reg := metrics.NewRegistry()
	a := New([]LeafTarget{fast, slow})
	a.Metrics = reg
	a.LeafTimeout = 100 * time.Millisecond
	recorded := traced(a, obs.TracerOptions{SlowThreshold: time.Millisecond})

	res, err := a.Query(countQuery())
	if err != nil {
		t.Fatal(err)
	}
	if res.LeavesAnswered != 1 {
		t.Fatalf("answered = %d, want 1", res.LeavesAnswered)
	}
	tr := recorded()[0]
	var abandonedSpan *obs.Span
	for i, sp := range tr.Leaves() {
		if sp.Err != "" {
			abandonedSpan = &tr.Leaves()[i]
		}
	}
	if abandonedSpan == nil {
		t.Fatalf("no abandoned span in %+v", tr)
	}
	if abandonedSpan.Err == "" || abandonedSpan.Duration <= 0 {
		t.Fatalf("abandoned span not annotated: %+v", abandonedSpan)
	}
	// The 100ms deadline also makes this query slow under the 1ms
	// threshold.
	if !tr.Root().Slow {
		t.Fatal("deadline-bound query not marked slow")
	}
}
