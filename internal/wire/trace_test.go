package wire

import (
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

	tracer := obs.NewTracer(obs.TracerOptions{})
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

	traces := tracer.Recent()
	if len(traces) != 1 {
		t.Fatalf("recent traces = %d, want 1", len(traces))
	}
	tr := traces[0]
	if tr.TraceID == 0 || tr.LeavesTotal != 2 || tr.LeavesAnswered != 2 {
		t.Fatalf("trace header wrong: %+v", tr)
	}
	if len(tr.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(tr.Spans))
	}
	var rows int64
	for _, sp := range tr.Spans {
		if !sp.Answered || sp.Exec == nil {
			t.Fatalf("span not answered with exec stats: %+v", sp)
		}
		if sp.Exec.SpanID != sp.SpanID {
			t.Fatalf("leaf echoed span %d into slot %d", sp.Exec.SpanID, sp.SpanID)
		}
		if sp.Exec.Recovery == "" || sp.Exec.Table != "events" {
			t.Fatalf("exec stats incomplete: %+v", sp.Exec)
		}
		if sp.RTTNanos < sp.Exec.LatencyNanos {
			t.Fatalf("rtt %d < leaf latency %d", sp.RTTNanos, sp.Exec.LatencyNanos)
		}
		rows += sp.Exec.RowsScanned
	}
	if rows != 150 {
		t.Fatalf("summed per-span rows = %d, want 150", rows)
	}
	if tr.Spans[0].Leaf != s0.Addr() || tr.Spans[1].Leaf != s1.Addr() {
		t.Fatalf("span labels = %q/%q, want server addresses", tr.Spans[0].Leaf, tr.Spans[1].Leaf)
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

	tracer := obs.NewTracer(obs.TracerOptions{})
	agg := aggregator.New([]aggregator.LeafTarget{c})
	agg.Tracer = tracer

	// The first read of the query response fails at the transport; the
	// retry answers. (AddRows above already consumed nothing: the fault is
	// armed after ingest.)
	fault.Arm(fault.Point{Site: fault.SiteWireRead, Action: fault.ActError, Count: 1})
	c.opts.RetryBase = time.Millisecond
	c.opts.RetryMax = 4 * time.Millisecond

	if _, err := agg.Query(countQuery()); err != nil {
		t.Fatal(err)
	}
	if got := fault.Hits(fault.SiteWireRead); got != 2 {
		t.Fatalf("wire.read hits = %d, want 2 (one failure + one success)", got)
	}

	traces := tracer.Recent()
	if len(traces) != 1 {
		t.Fatalf("recent traces = %d, want 1", len(traces))
	}
	tr := traces[0]
	if len(tr.Spans) != 1 {
		t.Fatalf("retried RPC produced %d spans, want 1: %+v", len(tr.Spans), tr.Spans)
	}
	sp := tr.Spans[0]
	if !sp.Answered || sp.Exec == nil {
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
	root.Tracer = obs.NewTracer(obs.TracerOptions{})
	if _, err := root.Query(countQuery()); err != nil {
		t.Fatal(err)
	}
	sp := root.Tracer.Recent()[0].Spans[0]
	if !sp.Answered || sp.Exec == nil {
		t.Fatalf("upstream span unanswered: %+v", sp)
	}
	if sp.Exec.LatencyNanos <= 0 || sp.Exec.LatencyNanos > sp.RTTNanos {
		t.Fatalf("subtree latency %dns outside (0, RTT %dns]", sp.Exec.LatencyNanos, sp.RTTNanos)
	}
}
