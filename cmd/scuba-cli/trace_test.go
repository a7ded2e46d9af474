package main

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"scuba"
	"scuba/internal/obs"
)

// waterfall is what printWaterfall draws for tr.
func waterfall(t *testing.T, tr scuba.Trace) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "waterfall")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	printWaterfall(tr)
	os.Stdout = stdout
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// The waterfall scuba-cli trace reads back from __system.traces is the
// waterfall of the spans the tracer handed its hooks, at the table's
// microsecond resolution: a trace whose subtree leaf failed, with the
// subtree aggregator's root under its upstream's leaf span, a slow root, and
// a leaf span retried and deduplicated, its 64-bit span ID negative as a cell.
func TestWaterfallFromSystemTraces(t *testing.T) {
	defer scuba.ResetFaults()
	dir := t.TempDir()
	var leaves []*scuba.Leaf
	var addrs []string
	for id := 0; id < 2; id++ {
		l, err := scuba.NewLeaf(scuba.LeafConfig{ID: id,
			Shm:      scuba.ShmOptions{Dir: dir, Namespace: "waterfall"},
			DiskRoot: filepath.Join(dir, "disk")})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Start(); err != nil {
			t.Fatal(err)
		}
		if err := l.AddRows("service_logs", scuba.ServiceLogs(int64(id), 1700000000).NextBatch(20000)); err != nil {
			t.Fatal(err)
		}
		srv, err := scuba.NewServer(l, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		leaves, addrs = append(leaves, l), append(addrs, srv.Addr())
	}
	// One observer, as scuba-aggd wires it: the sink writes every span into
	// __system.traces through leaf 0; the hook keeps what the tracers filed.
	sink := scuba.NewTelemetrySink(scuba.TelemetrySinkConfig{
		Emit: leaves[0].AddRows, Source: "aggd", MetricsInterval: -1,
		OnError: func(err error) { t.Errorf("telemetry: %v", err) },
	})
	defer sink.Close()
	var mu sync.Mutex
	var filed []scuba.Span
	ob := scuba.NewObserver(nil, nil)
	ob.OnSpans(sink.RecordSpans, func(tr scuba.Trace) {
		mu.Lock()
		defer mu.Unlock()
		filed = append(filed, tr...)
	})
	// Leaf 1 sits behind a subtree aggregator; the top aggregator fans out to
	// leaf 0 and the subtree, and every query it roots is slow.
	sub, err := scuba.NewAggServer(addrs[1:], "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	sub.Aggregator().Tracer = ob.Tracer(scuba.TracerOptions{})
	top, err := scuba.NewAggServer([]string{addrs[0], sub.Addr()}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer top.Close()
	tracer := ob.Tracer(scuba.TracerOptions{SlowThreshold: time.Nanosecond})
	top.Aggregator().Tracer = tracer
	c := scuba.DialLeaf(top.Addr())
	defer c.Close()

	q := &scuba.Query{Table: "service_logs", From: 0, To: 1 << 40, GroupBy: []string{"service"},
		Aggregations: []scuba.Aggregation{{Op: scuba.AggCount}, {Op: scuba.AggAvg, Column: "latency_ms"}}}
	if err := scuba.ArmFaults("leaf.query.1=error"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(q); err != nil {
		t.Fatal(err)
	}
	scuba.ResetFaults()
	if _, err := c.Query(q); err != nil {
		t.Fatal(err)
	}
	// A retried RPC observed twice under one span ID: the answer wins.
	start := time.Now()
	const rootID, leafID = 1 << 40, 1<<63 | 5
	tracer.Record(scuba.Trace{
		{TraceID: 77, SpanID: rootID, Kind: obs.KindQuery, Table: "service_logs", Worker: -1,
			Start: start, Duration: 3 * time.Millisecond, Query: "SELECT count FROM service_logs"},
		{TraceID: 77, SpanID: leafID, Parent: rootID, Kind: obs.KindQueryLeaf, Leaf: addrs[0], Table: "service_logs",
			Worker: -1, Start: start.Add(time.Microsecond), Duration: time.Millisecond, Err: "connection reset"},
		{TraceID: 77, SpanID: leafID, Parent: rootID, Kind: obs.KindQueryLeaf, Leaf: addrs[0], Table: "service_logs",
			Worker: -1, Start: start.Add(time.Millisecond), Duration: 2 * time.Millisecond, Recovery: "memory",
			Exec: &scuba.ExecStats{SpanID: leafID, Table: "service_logs", Recovery: "memory", LatencyNanos: 1_500_000,
				DecodeNanos: 10, ScanNanos: 900_000, RowsScanned: 20000, BlocksScanned: 1, CacheHits: 3}},
	})
	if !sink.Flush() {
		t.Fatal("telemetry sink did not flush")
	}

	// What the hook saw, cut to microseconds, and in the reader's order.
	mu.Lock()
	spans := append([]scuba.Span(nil), filed...)
	mu.Unlock()
	for i := range spans {
		spans[i].Start = time.UnixMicro(spans[i].Start.UnixMicro())
		spans[i].Duration = spans[i].Duration.Truncate(time.Microsecond)
	}
	want := obs.Traces(spans)
	if len(want) != 3 {
		t.Fatalf("the tracers filed %d traces, want 3", len(want))
	}
	var all string
	for _, tr := range want {
		got, err := readTraces(c, scuba.Filter{Column: "trace_id", Int: int64(tr[0].TraceID)})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 {
			t.Fatalf("trace %d read back as %d traces", tr[0].TraceID, len(got))
		}
		w, g := waterfall(t, tr), waterfall(t, got[0])
		if g != w {
			t.Errorf("waterfall from %s:\n%s\nwaterfall of the filed spans:\n%s", scuba.SystemTracesTable, g, w)
		}
		all += g
	}
	t.Logf("\n%s", all)
	// The traces carry what this test recorded: a subtree root under a leaf
	// span, a failed leaf, a slow root, and the leaves' execution reports.
	for _, want := range []string{"(slow)", "    query ", "FAILED: ", "cache 3/3", "dominant phase", " rows"} {
		if !strings.Contains(all, want) {
			t.Errorf("no %q in the waterfalls", want)
		}
	}
	if n := strings.Count(all, addrs[0]); n < 3 {
		t.Errorf("leaf 0 appears %d times, want a span in each trace", n)
	}

	// The roots, newest first: the hand-made trace, then the two queries.
	roots, err := readTraces(c, scuba.Filter{Column: "kind", Str: obs.KindQuery}, scuba.Filter{Column: "parent"})
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 3 || roots[0][0].TraceID != 77 || len(roots[1]) != 1 || !roots[1][0].Slow {
		t.Errorf("roots = %+v, want the three top roots, newest first, all slow", roots)
	}
}
