package obs

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"scuba/internal/metrics"
	"scuba/internal/rowblock"
)

// collectEmit is a test Emit target that records every delivered batch.
type collectEmit struct {
	mu     sync.Mutex
	tables []string
	rows   map[string][]rowblock.Row
}

func (c *collectEmit) emit(table string, rows []rowblock.Row) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rows == nil {
		c.rows = make(map[string][]rowblock.Row)
	}
	c.tables = append(c.tables, table)
	c.rows[table] = append(c.rows[table], rows...)
	return nil
}

func (c *collectEmit) get(table string) []rowblock.Row {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]rowblock.Row(nil), c.rows[table]...)
}

func fixedClock(sec int64) func() time.Time {
	return func() time.Time { return time.Unix(sec, 0) }
}

func TestIsSystemTable(t *testing.T) {
	for table, want := range map[string]bool{
		SystemMetricsTable:  true,
		SystemTracesTable:   true,
		SystemRolloverTable: true,
		SystemProfilesTable: true,
		SystemRecorderTable: true,
		"__system.other":    true,
		"service_logs":      false,
		"__systemish":       false,
		"":                  false,
	} {
		if got := IsSystemTable(table); got != want {
			t.Errorf("IsSystemTable(%q) = %v, want %v", table, got, want)
		}
	}
}

func TestSinkSnapshotRows(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("rows.added").Add(7)
	reg.Gauge("worker.busy").SetDuration(1500 * time.Microsecond)
	reg.Timer("restart.copy_in").Observe(2 * time.Millisecond)
	reg.Histogram("query.latency_hist").ObserveDuration(300 * time.Microsecond)

	var c collectEmit
	s := NewSink(SinkConfig{
		Emit:            c.emit,
		Source:          "leaf0",
		Registry:        reg,
		MetricsInterval: -1, // manual flushes only
		Clock:           fixedClock(1700000000),
	})
	defer s.Close()
	s.RecordSnapshot()
	if !s.Flush() {
		t.Fatal("flush failed")
	}

	rows := c.get(SystemMetricsTable)
	byName := map[string]rowblock.Row{}
	for _, r := range rows {
		byName[r.Cols["name"].Str] = r
	}
	cr, ok := byName["rows_added"] // canonical spelling, not the registry key
	if !ok {
		t.Fatalf("no rows_added row in %v", byName)
	}
	if cr.Time != 1700000000 || cr.Cols["type"].Str != "counter" ||
		cr.Cols["value"].Int != 7 || cr.Cols["source"].Str != "leaf0" {
		t.Errorf("counter row = %+v", cr)
	}
	if g := byName["worker_busy"]; g.Cols["unit"].Str != "us" || g.Cols["value"].Int != 1500 {
		t.Errorf("duration gauge row = %+v", g)
	}
	if tm := byName["restart_copy_in"]; tm.Cols["count"].Int != 1 || tm.Cols["sum_us"].Int != 2000 {
		t.Errorf("timer row = %+v", tm)
	}
	h := byName["query_latency_hist"]
	if h.Cols["count"].Int != 1 || h.Cols["p50"].Int != 300 || h.Cols["unit"].Str != "us" {
		t.Errorf("histogram row = %+v", h)
	}
	// Sink accounting landed in the registry.
	if got := reg.Counter("sink.rows").Value(); got != int64(len(rows)) {
		t.Errorf("sink.rows = %d, want %d", got, len(rows))
	}
}

func TestSinkSpanRowsAndSuppression(t *testing.T) {
	var c collectEmit
	s := NewSink(SinkConfig{Emit: c.emit, Source: "aggd", MetricsInterval: -1})
	defer s.Close()

	// Recursion suppression: no span of a __system query ever lands — not
	// the root, not a leaf's.
	s.RecordSpans(mkTrace(1, time.Millisecond, Span{SpanID: 2, Leaf: "a", Table: SystemMetricsTable}).
		retable(SystemMetricsTable))
	// A restart step that carried a __system table is not a query: it lands.
	s.RecordSpans(Trace{{TraceID: 3, Kind: KindRestart, Half: HalfStart, Phase: PhaseTableCopyIn,
		Table: SystemMetricsTable, Recovery: "memory", Blocks: 2, Start: time.UnixMicro(7_000_001)}})
	// A query trace is a root row and a row per leaf, under one trace ID.
	tr := mkTrace(10, 5*time.Millisecond,
		Span{SpanID: 11, Leaf: "leaf0", Duration: 3 * time.Millisecond, Recovery: "memory", Shards: []int{0, 2},
			Exec: &ExecStats{LatencyNanos: 2_500_000, ScanNanos: 2_000_000, RowsScanned: 7, CacheHits: 3, ShardsServed: 2}},
		Span{SpanID: 12, Leaf: "leaf1", Duration: 4 * time.Millisecond, Err: "leaf restarting"},
	).retable("service_logs")
	tr[0].Slow, tr[0].ShardsTotal, tr[0].ShardsAnswered = true, 4, 2
	s.RecordSpans(tr)
	s.Flush()

	rows := c.get(SystemTracesTable)
	if len(rows) != 4 {
		t.Fatalf("span rows = %d, want 1 restart + 1 root + 2 leaves: %+v", len(rows), rows)
	}
	if r := rows[0].Cols; r["kind"].Str != KindRestart || r["table"].Str != SystemMetricsTable ||
		rows[0].Time != 7 || r["t_us"].Int != 7_000_001 || r["blocks"].Int != 2 {
		t.Errorf("restart row = %+v at %d", r, rows[0].Time)
	}
	root, l0, l1 := rows[1].Cols, rows[2].Cols, rows[3].Cols
	if root["kind"].Str != KindQuery || root["slow"].Int != 1 || root["query"].Str == "" ||
		root["shards_total"].Int != 4 || root["shards_answered"].Int != 2 || root["duration_us"].Int != 5000 {
		t.Errorf("root row = %+v", root)
	}
	for _, r := range []map[string]rowblock.Value{l0, l1} {
		if r["kind"].Str != KindQueryLeaf || r["trace_id"].Int != 10 || r["parent"].Int != root["span_id"].Int ||
			r["table"].Str != "service_logs" || r["source"].Str != "aggd" {
			t.Errorf("leaf row = %+v, want a child of root %d", r, root["span_id"].Int)
		}
	}
	if l0["leaf"].Str != "leaf0" || l0["recovery"].Str != "memory" || l0["shards"].Int != 2 || l0["err"].Str != "" {
		t.Errorf("answered leaf row = %+v", l0)
	}
	// The leaf's execution report is cells of its row, its zeros unwritten.
	if l0["latency_ns"].Int != 2_500_000 || l0["scan_ns"].Int != 2_000_000 || l0["rows_scanned"].Int != 7 ||
		l0["cache_hits"].Int != 3 || l0["shards_served"].Int != 2 {
		t.Errorf("answered leaf row's exec cells = %+v", l0)
	}
	if _, ok := l0["decode_ns"]; ok {
		t.Errorf("a zero exec cell was written: %+v", l0)
	}
	if _, ok := l1["latency_ns"]; ok {
		t.Errorf("failed leaf row has exec cells: %+v", l1)
	}
	if l1["leaf"].Str != "leaf1" || l1["err"].Str != "leaf restarting" || l1["duration_us"].Int != 4000 {
		t.Errorf("failed leaf row = %+v", l1)
	}
}

// retable sets the queried table on every span of a hand-made trace.
func (t Trace) retable(table string) Trace {
	for i := range t {
		t[i].Table = table
	}
	return t
}

// Restart spans carry no span ID, and a pool's workers can begin table spans
// in the same microsecond: Traces orders them by phase, table and worker, so
// a trace read back in the group-by's order draws as the ledger does.
func TestTracesOrderTiedRestartSpansAlike(t *testing.T) {
	at := time.UnixMicro(1_700_000_000_000_000)
	ledger := []Span{
		{TraceID: 5, Kind: KindRestart, Half: HalfStart, Phase: PhaseCopyIn, Worker: -1, Start: at},
		{TraceID: 5, Kind: KindRestart, Half: HalfStart, Phase: PhaseTableCRC, Table: "t1", Worker: 0, Start: at},
		{TraceID: 5, Kind: KindRestart, Half: HalfStart, Phase: PhaseTableCRC, Table: "t0", Worker: 1, Start: at},
	}
	readBack := []Span{ledger[2], ledger[1], ledger[0]}
	got, want := Traces(readBack), Traces(ledger)
	if len(got) != 1 || len(want) != 1 || !reflect.DeepEqual(got[0], want[0]) {
		t.Errorf("read back in another order: %+v\nfrom the ledger: %+v", got, want)
	}
}

func TestSinkRecorderEvents(t *testing.T) {
	var c collectEmit
	s := NewSink(SinkConfig{Emit: c.emit, Source: "leaf1", MetricsInterval: -1, Clock: fixedClock(0)})
	defer s.Close()

	evs := []Event{
		{Seq: 1, UnixMicros: 5_000_123, Kind: EventBegin, Phase: "restart.copy_out"},
		{Seq: 2, UnixMicros: 5_100_456, Kind: EventEnd, Phase: "restart.copy_out", Detail: "100ms"},
	}
	s.RecordRecorderEvents("previous", evs)
	s.Flush()

	rows := c.get(SystemRecorderTable)
	if len(rows) != 2 {
		t.Fatalf("recorder rows = %d", len(rows))
	}
	r := rows[1]
	if r.Time != 5 || r.Cols["run"].Str != "previous" || r.Cols["kind"].Str != "end" ||
		r.Cols["phase"].Str != "restart.copy_out" || r.Cols["t_us"].Int != 5_100_456 {
		t.Errorf("row = %+v", r)
	}
}

func TestSinkOverflowDropsNotBlocks(t *testing.T) {
	reg := metrics.NewRegistry()
	release := make(chan struct{})
	blocked := make(chan struct{})
	var once sync.Once
	s := NewSink(SinkConfig{
		Emit: func(string, []rowblock.Row) error {
			once.Do(func() { close(blocked) })
			<-release
			return nil
		},
		Registry:        reg,
		MetricsInterval: -1,
		QueueSize:       2,
		Clock:           fixedClock(0),
	})
	row := []rowblock.Row{{Time: 1, Cols: map[string]rowblock.Value{"x": rowblock.Int64Value(1)}}}
	s.RecordRows(SystemRolloverTable, row) // drain goroutine picks this up and blocks
	<-blocked
	done := make(chan struct{})
	go func() {
		for i := 0; i < 10; i++ {
			s.RecordRows(SystemRolloverTable, row)
		}
		close(done)
	}()
	select {
	case <-done: // enqueues must return immediately even with Emit wedged
	case <-time.After(5 * time.Second):
		t.Fatal("RecordRows blocked on a wedged Emit")
	}
	if got := reg.Counter("sink.dropped").Value(); got < 8 {
		t.Errorf("sink.dropped = %d, want >= 8", got)
	}
	close(release)
	s.Close()
}

func TestSinkCloseDeliversQueued(t *testing.T) {
	var c collectEmit
	s := NewSink(SinkConfig{Emit: c.emit, MetricsInterval: -1, Clock: fixedClock(0)})
	row := []rowblock.Row{{Time: 1, Cols: map[string]rowblock.Value{"x": rowblock.Int64Value(1)}}}
	for i := 0; i < 5; i++ {
		s.RecordRows(SystemRolloverTable, row)
	}
	s.Close()
	if got := len(c.get(SystemRolloverTable)); got != 5 {
		t.Errorf("delivered %d rows after Close, want 5", got)
	}
	// Idempotent close, and post-close records are silently discarded.
	s.Close()
	s.RecordRows(SystemRolloverTable, row)

	// Nil sink: every method is a no-op.
	var nilSink *Sink
	nilSink.RecordRows(SystemRolloverTable, row)
	nilSink.RecordSpans(Trace{{Kind: KindQuery}})
	nilSink.RecordSnapshot()
	nilSink.Close()
	if nilSink.Flush() {
		t.Error("nil sink Flush returned true")
	}
}

func TestSinkMetricsLoop(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("rows.added").Add(1)
	var c collectEmit
	s := NewSink(SinkConfig{
		Emit:            c.emit,
		Registry:        reg,
		MetricsInterval: 5 * time.Millisecond,
		Clock:           fixedClock(42),
	})
	defer s.Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(c.get(SystemMetricsTable)) > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("metrics loop produced no __system.metrics rows")
}
