package wire

import (
	"sync"
	"testing"
	"time"

	"scuba/internal/aggregator"
	"scuba/internal/fault"
	"scuba/internal/obs"
	"scuba/internal/query"
)

func countQuery() *query.Query {
	return &query.Query{Table: "events", From: 0, To: 1 << 40,
		Aggregations: []query.Aggregation{{Op: query.AggCount}}}
}

// recordingTracer returns a tracer whose observer's span hook keeps every
// trace it files, and what the hook has seen so far, in order.
func recordingTracer(opts obs.TracerOptions) (*obs.Tracer, func() []obs.Trace) {
	var mu sync.Mutex
	var seen []obs.Trace
	ob := obs.New(nil, nil)
	ob.OnSpans(func(tr obs.Trace) {
		mu.Lock()
		defer mu.Unlock()
		seen = append(seen, tr)
	})
	return ob.Tracer(opts), func() []obs.Trace {
		mu.Lock()
		defer mu.Unlock()
		return append([]obs.Trace(nil), seen...)
	}
}

// TestTraceOverWire runs a traced query through an aggregator over wire
// clients and checks the assembled trace: one span per leaf, each answered
// with an ExecStats whose span ID echoes the one the aggregator stamped.
func TestTraceOverWire(t *testing.T) {
	s0, c0, _ := newServer(t, 83)
	s1, c1, _ := newServer(t, 84)
	_ = s1
	if err := c0.AddRows("events", mkRows(100, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := c1.AddRows("events", mkRows(50, 1000)); err != nil {
		t.Fatal(err)
	}

	tracer, recorded := recordingTracer(obs.TracerOptions{})
	agg := aggregator.New([]aggregator.LeafTarget{c0, c1})
	agg.Tracer = tracer
	agg.Labels = []string{s0.Addr(), s1.Addr()}

	res, err := agg.Query(countQuery())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows(countQuery())[0].Values[0]; got != 150 {
		t.Fatalf("count = %v, want 150", got)
	}

	traces := recorded()
	if len(traces) != 1 {
		t.Fatalf("recorded traces = %d, want 1", len(traces))
	}
	spans := traces[0].Leaves()
	if traces[0].Root().TraceID == 0 || len(spans) != 2 || spans.Answered() != 2 {
		t.Fatalf("trace wrong: %+v", traces[0])
	}
	var rows int64
	for _, sp := range spans {
		if sp.Err != "" || sp.Exec == nil {
			t.Fatalf("span not answered with exec stats: %+v", sp)
		}
		if sp.Exec.SpanID != sp.SpanID {
			t.Fatalf("leaf echoed span %d into slot %d", sp.Exec.SpanID, sp.SpanID)
		}
		if sp.Exec.Recovery == "" || sp.Exec.Table != "events" {
			t.Fatalf("exec stats incomplete: %+v", sp.Exec)
		}
		if sp.Duration.Nanoseconds() < sp.Exec.LatencyNanos {
			t.Fatalf("rtt %v < leaf latency %dns", sp.Duration, sp.Exec.LatencyNanos)
		}
		rows += sp.Exec.RowsScanned
	}
	if rows != 150 {
		t.Fatalf("summed per-span rows = %d, want 150", rows)
	}
	if spans[0].Leaf != s0.Addr() || spans[1].Leaf != s1.Addr() {
		t.Fatalf("span labels = %q/%q, want server addresses", spans[0].Leaf, spans[1].Leaf)
	}
}

// TestTraceStableAcrossRetries pins the satellite guarantee: a retried
// idempotent RPC re-sends the same span ID, so the assembled trace has
// exactly one span per leaf — no duplicates — and that span carries the
// answering attempt's stats.
func TestTraceStableAcrossRetries(t *testing.T) {
	t.Cleanup(fault.Reset)
	fault.Reset()
	_, c, _ := newServer(t, 85)
	if err := c.AddRows("events", mkRows(100, 1000)); err != nil {
		t.Fatal(err)
	}

	tracer, recorded := recordingTracer(obs.TracerOptions{})
	agg := aggregator.New([]aggregator.LeafTarget{c})
	agg.Tracer = tracer

	// The first read of the query response fails at the transport; the
	// retry answers. (AddRows above already consumed nothing: the fault is
	// armed after ingest.)
	fault.Arm(fault.Point{Site: fault.SiteWireRead, Action: fault.ActError, Count: 1})
	c.retryMax = 4 * time.Millisecond

	if _, err := agg.Query(countQuery()); err != nil {
		t.Fatal(err)
	}
	if got := fault.Hits(fault.SiteWireRead); got != 2 {
		t.Fatalf("wire.read hits = %d, want 2 (one failure + one success)", got)
	}

	traces := recorded()
	if len(traces) != 1 {
		t.Fatalf("recorded traces = %d, want 1", len(traces))
	}
	tr := traces[0]
	if len(tr.Leaves()) != 1 {
		t.Fatalf("retried RPC produced %d spans, want 1: %+v", len(tr.Leaves()), tr)
	}
	sp := tr.Leaves()[0]
	if sp.Err != "" || sp.Exec == nil {
		t.Fatalf("retried span unanswered: %+v", sp)
	}
	if sp.Exec.SpanID != sp.SpanID {
		t.Fatalf("answering attempt carried span %d, aggregator stamped %d", sp.Exec.SpanID, sp.SpanID)
	}
	if sp.Exec.RowsScanned != 100 {
		t.Fatalf("exec rows = %d, want 100", sp.Exec.RowsScanned)
	}
}

// TestAggServerPropagatesTrace checks the aggregator-tree path: a traced
// query sent to an AggServer keeps the parent's trace ID and answers with
// subtree-summed exec stats.
func TestAggServerPropagatesTrace(t *testing.T) {
	s, c, _ := newServer(t, 86)
	if err := c.AddRows("events", mkRows(100, 1000)); err != nil {
		t.Fatal(err)
	}
	as, err := NewAggServer([]string{s.Addr()}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer as.Close()
	subTracer, subRecorded := recordingTracer(obs.TracerOptions{})
	as.Aggregator().Tracer = subTracer

	up := Dial(as.Addr())
	defer up.Close()
	tc := obs.TraceContext{TraceID: obs.RandomID(), SpanID: obs.RandomID()}
	res, exec, err := up.QueryTraced(countQuery(), tc)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows(countQuery())[0].Values[0]; got != 100 {
		t.Fatalf("count = %v, want 100", got)
	}
	if exec == nil || exec.SpanID != tc.SpanID {
		t.Fatalf("aggserver exec = %+v, want span %d echoed", exec, tc.SpanID)
	}
	if exec.RowsScanned != 100 {
		t.Fatalf("subtree rows = %d, want 100", exec.RowsScanned)
	}

	// The upstream aggregator's span for the subtree: its latency is the
	// subtree's wall time, so RTT - latency is the hop, not the whole query.
	root := aggregator.New([]aggregator.LeafTarget{up})
	rootTracer, rootRecorded := recordingTracer(obs.TracerOptions{})
	root.Tracer = rootTracer
	if _, err := root.Query(countQuery()); err != nil {
		t.Fatal(err)
	}
	sp := rootRecorded()[0].Leaves()[0]
	if sp.Err != "" || sp.Exec == nil {
		t.Fatalf("upstream span unanswered: %+v", sp)
	}
	if sp.Exec.LatencyNanos <= 0 || sp.Exec.LatencyNanos > sp.Duration.Nanoseconds() {
		t.Fatalf("subtree latency %dns outside (0, RTT %v]", sp.Exec.LatencyNanos, sp.Duration)
	}
	// The subtree's own spans do not vanish into that one report: its
	// aggregator's trace has the same ID and hangs under the upstream span.
	var sub obs.Trace
	for _, tr := range subRecorded() {
		if tr.Root().TraceID == sp.TraceID {
			sub = tr
		}
	}
	if sub.Root().Parent != sp.SpanID || len(sub.Leaves()) != 1 || sub.Leaves()[0].Parent != sub.Root().SpanID {
		t.Fatalf("subtree trace %+v does not hang under upstream span %d", sub, sp.SpanID)
	}
}
