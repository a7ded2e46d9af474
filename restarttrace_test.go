package scuba_test

// A restart is a trace you can query: a clean shm restart (both halves, one
// trace ID carried across the process boundary in the flight-recorder ring)
// and a crash restart (start half only) each land in __system.traces as one
// trace, read back here through the aggregator, and the top-level span
// durations read back sum to no more than the gap this test measured with its
// own clock.
// So is a query: its root and its per-leaf spans are rows of the same table
// under the same columns, read back the same way.

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"scuba"
)

// tracedProc is one "process": a leaf, the observer and telemetry sink a
// scubad would give it, a server, and an aggregator over it.
type tracedProc struct {
	leaf *scuba.Leaf
	rec  *scuba.FlightRecorder
	sink *scuba.TelemetrySink
	srv  *scuba.Server
	agg  *scuba.AggServer
	cl   *scuba.Client
}

// exit ends the process without shutting the leaf down: what remains is what
// a dead process leaves.
func (p *tracedProc) exit(closeRecorder bool) {
	p.cl.Close()
	p.agg.Close()
	p.srv.Close()
	p.sink.Close()
	if closeRecorder {
		p.rec.Close()
	}
}

// traceRows reads one trace back from __system.traces, once the sink has
// delivered, with an ordinary group-by through cl.
func traceRows(t *testing.T, sink *scuba.TelemetrySink, cl *scuba.Client, traceID uint64, groupBy []string, aggs ...scuba.Aggregation) []scuba.ResultRow {
	t.Helper()
	if !sink.Flush() {
		t.Fatal("telemetry sink did not flush")
	}
	q := &scuba.Query{
		Table: scuba.SystemTracesTable, From: 0, To: 1 << 40, Limit: 1000,
		Filters: []scuba.Filter{{Column: "trace_id", Op: scuba.OpEq, Int: int64(traceID)}},
		GroupBy: groupBy, Aggregations: aggs,
	}
	res, err := cl.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows(q)
}

func TestRestartTraceInSystemTraces(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "shm"), 0o755); err != nil {
		t.Fatal(err)
	}
	count := &scuba.Query{Table: "service_logs", From: 0, To: 1 << 40,
		Aggregations: []scuba.Aggregation{{Op: scuba.AggCount}}}

	// boot starts a process on what the last one left and returns it with the
	// time from Start's first instruction to the first answer through the
	// aggregator.
	boot := func(wantRows float64) (*tracedProc, time.Duration) {
		t.Helper()
		shm := scuba.ShmOptions{Dir: filepath.Join(dir, "shm"), Namespace: "ledger"}
		rec, err := scuba.OpenFlightRecorder(0, scuba.FlightRecorderOptions{Dir: shm.Dir, Namespace: shm.Namespace})
		if err != nil {
			t.Fatal(err)
		}
		ob := scuba.NewObserver(scuba.NewMetricsRegistry(), rec)
		l, err := scuba.NewLeaf(scuba.LeafConfig{
			ID: 0, Shm: shm, Obs: ob,
			DiskRoot: filepath.Join(dir, "disk"), WALDir: filepath.Join(dir, "wal"),
		})
		if err != nil {
			t.Fatal(err)
		}
		p := &tracedProc{leaf: l, rec: rec}
		p.sink = scuba.NewTelemetrySink(scuba.TelemetrySinkConfig{
			Emit: l.AddRows, Source: "leaf0", MetricsInterval: -1,
			OnError: func(err error) { t.Errorf("telemetry: %v", err) },
		})
		ob.OnSpans(p.sink.RecordSpans)

		begin := time.Now()
		if err := l.Start(); err != nil {
			t.Fatal(err)
		}
		if p.srv, err = scuba.NewServer(l, "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		if p.agg, err = scuba.NewAggServer([]string{p.srv.Addr()}, "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		p.cl = scuba.DialLeaf(p.agg.Addr())
		res, err := p.cl.Query(count)
		up := time.Since(begin)
		if err != nil {
			t.Fatal(err)
		}
		if rows := res.Rows(count); wantRows > 0 && (len(rows) != 1 || rows[0].Values[0] != wantRows) {
			t.Fatalf("first answer = %+v, want %v rows", rows, wantRows)
		}
		return p, up
	}

	// gapFromTraces reads one trace back from __system.traces through the
	// aggregator: per half, the summed duration of its top-level spans and
	// how many span rows it has in all.
	type halfRows struct {
		gap   time.Duration
		spans int
	}
	gapFromTraces := func(p *tracedProc, traceID uint64) map[string]halfRows {
		t.Helper()
		out := map[string]halfRows{}
		for _, row := range traceRows(t, p.sink, p.cl, traceID, []string{"half", "phase", "table"},
			scuba.Aggregation{Op: scuba.AggCount}, scuba.Aggregation{Op: scuba.AggSum, Column: "duration_us"}) {
			half, phase, table := row.Key[0], row.Key[1], row.Key[2]
			h := out[half]
			h.spans += int(row.Values[0])
			if table == "" && phase != "restart.promote" {
				if row.Values[0] != 1 {
					t.Errorf("%v top-level %s spans in one %s half", row.Values[0], phase, half)
				}
				h.gap += time.Duration(row.Values[1]) * time.Microsecond
			}
			out[half] = h
		}
		return out
	}
	// The spans read back never exceed this test's clock, and that is all this
	// test asks of the sum. The clock runs past what a leaf's ledger can cover —
	// its last span ends when the leaf has executed its first query, and the
	// answer then crosses two connections that carry their first reply and an
	// aggregator's merge, 0.7 to 1.7 ms on a quiet host and any length under a
	// stall — so how little may go uncovered is measured inside the process,
	// by internal/leaf's TestRestartTraceAccountsForTheGap.
	within := func(what string, got, want time.Duration) {
		t.Helper()
		if got <= 0 || got > want {
			t.Errorf("%s: spans read back from __system.traces sum to %v, this test's clock says %v: want no more", what, got, want)
		} else {
			t.Logf("%s: %v of %v (%.1f %%)", what, got, want, 100*float64(got)/float64(want))
		}
	}

	// Process 1: fresh, loaded.
	const rows = 1000000
	p1, _ := boot(0)
	gen := scuba.ServiceLogs(5, 1700000000)
	for sent := 0; sent < rows; sent += 10000 {
		if err := p1.leaf.AddRows("service_logs", gen.NextBatch(10000)); err != nil {
			t.Fatal(err)
		}
	}

	// A clean restart: the old process's Shutdown, then process 2.
	begin := time.Now()
	if _, err := p1.leaf.Shutdown(); err != nil {
		t.Fatal(err)
	}
	down := time.Since(begin)
	p1.exit(true)
	p2, up := boot(rows)
	if path := p2.leaf.Recovery().Path; path != scuba.RecoveryMemory {
		t.Fatalf("clean restart recovered by %q", path)
	}
	ledger := p2.leaf.RestartTrace()
	clean := ledger[len(ledger)-1].TraceID
	got := gapFromTraces(p2, clean)
	if len(got) != 2 || got["shutdown"].spans+got["start"].spans != len(ledger) {
		t.Fatalf("__system.traces holds %+v of trace %d, the leaf's ledger %d spans over both halves", got, clean, len(ledger))
	}
	within("clean restart, shutdown half", got["shutdown"].gap, down)
	within("clean restart, start half", got["start"].gap, up)

	// A crash: more acked rows, then process 2 just stops. Process 3 comes
	// back through the images and the log, in a trace of its own with no
	// shutdown half.
	if err := p2.leaf.AddRows("service_logs", gen.NextBatch(60000)); err != nil {
		t.Fatal(err)
	}
	p2.exit(false)
	p3, up := boot(rows + 60000)
	defer p3.exit(true)
	if path := p3.leaf.Recovery().Path; path != scuba.RecoveryWAL {
		t.Fatalf("crash restart recovered by %q", path)
	}
	ledger = p3.leaf.RestartTrace()
	crash := ledger[len(ledger)-1].TraceID
	if crash == clean {
		t.Fatalf("the crash restart continued trace %d of the clean restart before it", clean)
	}
	got = gapFromTraces(p3, crash)
	if len(got) != 1 || got["start"].spans != len(ledger) {
		t.Fatalf("__system.traces holds %+v of trace %d, the leaf's ledger %d start spans", got, crash, len(ledger))
	}
	within("crash restart", got["start"].gap, up)
	// The clean restart's trace came back with the table it lives in.
	if again := gapFromTraces(p3, clean); again["shutdown"].spans == 0 || again["start"].spans == 0 {
		t.Errorf("trace %d did not survive the crash restart: %+v", clean, again)
	}
}

// A traced query lands in __system.traces as a root row and one row per leaf
// under one trace ID — the failed leaf's with its error — so "which leaf was
// slow" is a group-by; a query of a __system table leaves no rows at all.
func TestQueryTraceInSystemTraces(t *testing.T) {
	defer scuba.ResetFaults()
	dir := t.TempDir()
	var addrs []string
	var leaves []*scuba.Leaf
	for id := 0; id < 2; id++ {
		l, err := scuba.NewLeaf(scuba.LeafConfig{ID: id,
			Shm:      scuba.ShmOptions{Dir: dir, Namespace: "qtrace"},
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
		defer srv.Close()
		leaves, addrs = append(leaves, l), append(addrs, srv.Addr())
	}
	// The aggregator as scuba-aggd wires it: its tracer's finished spans go
	// to the sink, which ingests them through the first leaf.
	sink := scuba.NewTelemetrySink(scuba.TelemetrySinkConfig{
		Emit: leaves[0].AddRows, Source: "aggd", MetricsInterval: -1,
		OnError: func(err error) { t.Errorf("telemetry: %v", err) },
	})
	defer sink.Close()
	var mu sync.Mutex
	var recorded []uint64 // the trace IDs the tracer filed, in order
	ob := scuba.NewObserver(nil, nil)
	ob.OnSpans(sink.RecordSpans, func(tr scuba.Trace) {
		mu.Lock()
		defer mu.Unlock()
		recorded = append(recorded, tr.Root().TraceID)
	})
	traced := func() []uint64 {
		mu.Lock()
		defer mu.Unlock()
		return append([]uint64(nil), recorded...)
	}
	agg, err := scuba.NewAggServer(addrs, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	agg.Aggregator().Tracer = ob.Tracer(scuba.TracerOptions{})
	cl := scuba.DialLeaf(agg.Addr())
	defer cl.Close()

	count := &scuba.Query{Table: "service_logs", From: 0, To: 1 << 40,
		Aggregations: []scuba.Aggregation{{Op: scuba.AggCount}}}
	if err := scuba.ArmFaults("leaf.query.1=error"); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Query(count)
	if err != nil {
		t.Fatal(err)
	}
	scuba.ResetFaults()
	if res.LeavesAnswered != 1 || res.LeavesTotal != 2 {
		t.Fatalf("coverage %d/%d, want leaf 1 failed", res.LeavesAnswered, res.LeavesTotal)
	}
	id := traced()[0]

	maxDur := scuba.Aggregation{Op: scuba.AggMax, Column: "duration_us"}
	byKind := map[string][2]float64{} // kind → rows, max duration_us
	for _, row := range traceRows(t, sink, cl, id, []string{"kind"}, scuba.Aggregation{Op: scuba.AggCount}, maxDur) {
		byKind[row.Key[0]] = [2]float64{row.Values[0], row.Values[1]}
	}
	root, leaf := byKind["query"], byKind["query.leaf"]
	if len(byKind) != 2 || root[0] != 1 || leaf[0] != 2 {
		t.Fatalf("trace %d read back as %v, want 1 query row and 2 query.leaf rows", id, byKind)
	}
	if leaf[1] <= 0 || leaf[1] > root[1] {
		t.Errorf("slowest leaf took %v us of a %v us query", leaf[1], root[1])
	}
	// "The slowest leaf of trace X", and who failed: one group-by.
	var failed, slowest string
	var slowestUs float64
	for _, row := range traceRows(t, sink, cl, id, []string{"leaf", "err"}, maxDur) {
		switch l, errText := row.Key[0], row.Key[1]; {
		case l == "": // the root
		case errText != "":
			failed = l
		case row.Values[0] > slowestUs:
			slowest, slowestUs = l, row.Values[0]
		}
	}
	if failed != addrs[1] || slowest != addrs[0] {
		t.Errorf("failed leaf = %q, slowest answered leaf = %q; want %q and %q", failed, slowest, addrs[1], addrs[0])
	}

	// The read-backs above were traced queries of a __system table, through
	// the same aggregator: they left nothing.
	all := &scuba.Query{Table: scuba.SystemTracesTable, From: 0, To: 1 << 40,
		Aggregations: []scuba.Aggregation{{Op: scuba.AggCount}}}
	if len(traced()) < 3 || !sink.Flush() {
		t.Fatalf("tracer filed %d traces: the read-backs must have been traced too", len(traced()))
	}
	if res, err = cl.Query(all); err != nil {
		t.Fatal(err)
	} else if rows := res.Rows(all); len(rows) != 1 || rows[0].Values[0] != 3 {
		t.Errorf("%s holds %+v rows, want the one user query's 3", scuba.SystemTracesTable, rows)
	}
}
