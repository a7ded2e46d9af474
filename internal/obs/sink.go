package obs

// Scuba-on-Scuba: the self-telemetry sink feeds the system's own
// observability data — metric-registry snapshots (a leaf's facts among
// them), completed trace summaries, flight-recorder events — back through
// the normal ingest path into reserved __system.* tables, so operators
// query the cluster's health with the same query engine the cluster
// serves. Because __system tables are ordinary leaf tables, they ride the
// shm restart path: restart history survives restarts.
//
// Two rules keep the loop from feeding on itself:
//
//   - recursion suppression: the spans of queries against __system.* tables
//     are never converted into __system.traces rows (RecordSpans checks
//     IsSystemTable on every query span's table), so health dashboards
//     polling the system tables do not generate telemetry about their own
//     polls;
//   - the hot path never blocks on telemetry: every Record* call is a
//     non-blocking enqueue onto a bounded queue drained by one background
//     goroutine; overflow drops the batch and counts sink.dropped.

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"scuba/internal/metrics"
	"scuba/internal/rowblock"
)

// Reserved self-telemetry tables. Everything under SystemTablePrefix is
// written by the sink and its feeders, never by user ingest.
const (
	// SystemTablePrefix marks a table as self-telemetry.
	SystemTablePrefix = "__system."
	// SystemMetricsTable holds per-daemon metric-registry snapshots (one
	// row per metric per flush).
	SystemMetricsTable = "__system.metrics"
	// SystemTracesTable holds finished spans, one row each: a query's root
	// and per-leaf spans, a restart's steps.
	SystemTracesTable = "__system.traces"
	// SystemRecorderTable holds flight-recorder events — including the
	// previous run's events recovered after a crash, so crash forensics
	// are queryable, not just logged at boot.
	SystemRecorderTable = "__system.recorder"
	// SystemRolloverTable holds rolling-restart timelines: per-restart
	// outcomes and the availability probe's coverage/latency points.
	SystemRolloverTable = "__system.rollover"
	// SystemProfilesTable holds the continuous profiler's folded captures:
	// one row per top-N function per capture window, plus a "(total)" row,
	// tagged with the trigger (interval / slow_query / restart / gc_pause)
	// and, for slow queries, the trace ID that tripped the capture.
	SystemProfilesTable = "__system.profiles"
)

// IsSystemTable reports whether a table is a reserved self-telemetry table.
func IsSystemTable(name string) bool {
	return strings.HasPrefix(name, SystemTablePrefix)
}

// SinkConfig configures a self-telemetry Sink.
type SinkConfig struct {
	// Emit delivers one batch of rows to a __system table — typically
	// leaf.AddRows on the local leaf (scubad) or a round-robin AddRows RPC
	// over the cluster's live leaves (scuba-aggd). Called from the sink's
	// single drain goroutine, never from the caller's hot path. Required.
	Emit func(table string, rows []rowblock.Row) error
	// Source labels every row this sink produces (the daemon's identity —
	// a leaf address, "aggd", "tailer:<category>").
	Source string
	// Registry, when non-nil, is snapshotted into __system.metrics every
	// MetricsInterval and receives the sink's own sink.rows / sink.dropped
	// / sink.errors counters.
	Registry *metrics.Registry
	// MetricsInterval is the __system.metrics snapshot period (default
	// 15s; negative disables the loop, e.g. for tests that flush manually).
	MetricsInterval time.Duration
	// QueueSize bounds the pending-batch queue (default 128).
	QueueSize int
	// Clock overrides time.Now for tests.
	Clock func() time.Time
	// OnError observes delivery errors (in addition to the sink.errors
	// counter). Optional.
	OnError func(error)
}

type sinkBatch struct {
	table string
	rows  []rowblock.Row
	ack   chan struct{} // non-nil for Flush sentinels
}

// Sink converts observability data into typed rows and delivers them
// asynchronously through Emit. All methods are safe for concurrent use and
// are no-ops on a nil *Sink, so daemons can wire it unconditionally.
type Sink struct {
	cfg  SinkConfig
	ch   chan sinkBatch
	done chan struct{}
	wg   sync.WaitGroup
	once sync.Once

	rowsCount *metrics.Counter
	dropped   *metrics.Counter
	errors    *metrics.Counter
}

// NewSink creates and starts a sink. Panics if cfg.Emit is nil — a sink
// with nowhere to deliver is a programming error, not a runtime state.
func NewSink(cfg SinkConfig) *Sink {
	if cfg.Emit == nil {
		panic("obs: SinkConfig.Emit is required")
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 128
	}
	if cfg.MetricsInterval == 0 {
		cfg.MetricsInterval = 15 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	s := &Sink{
		cfg:  cfg,
		ch:   make(chan sinkBatch, cfg.QueueSize),
		done: make(chan struct{}),
		// Without a registry the sink counts into nothing.
		rowsCount: &metrics.Counter{}, dropped: &metrics.Counter{}, errors: &metrics.Counter{},
	}
	if reg := cfg.Registry; reg != nil {
		s.rowsCount, s.dropped, s.errors = reg.Counter("sink.rows"), reg.Counter("sink.dropped"), reg.Counter("sink.errors")
	}
	s.wg.Add(1)
	go s.drain()
	if cfg.Registry != nil && cfg.MetricsInterval > 0 {
		s.wg.Add(1)
		go s.metricsLoop()
	}
	return s
}

// Close stops the background goroutines after delivering everything already
// queued. Idempotent.
func (s *Sink) Close() {
	if s == nil {
		return
	}
	s.once.Do(func() { close(s.done) })
	s.wg.Wait()
}

// Flush blocks until every batch enqueued before the call has been handed
// to Emit. Returns false if the sink is closed or the queue is full.
func (s *Sink) Flush() bool {
	if s == nil {
		return false
	}
	ack := make(chan struct{})
	select {
	case <-s.done:
		return false
	case s.ch <- sinkBatch{ack: ack}:
	default:
		return false
	}
	select {
	case <-ack:
		return true
	case <-s.done:
		return false
	}
}

func (s *Sink) drain() {
	defer s.wg.Done()
	for {
		select {
		case b := <-s.ch:
			s.deliver(b)
		case <-s.done:
			// Drain what is already buffered, then stop.
			for {
				select {
				case b := <-s.ch:
					s.deliver(b)
				default:
					return
				}
			}
		}
	}
}

func (s *Sink) deliver(b sinkBatch) {
	if b.ack != nil {
		close(b.ack)
		return
	}
	if err := s.cfg.Emit(b.table, b.rows); err != nil {
		s.errors.Add(1)
		if s.cfg.OnError != nil {
			s.cfg.OnError(fmt.Errorf("obs: sink emit %s: %w", b.table, err))
		}
		return
	}
	s.rowsCount.Add(int64(len(b.rows)))
}

func (s *Sink) metricsLoop() {
	defer s.wg.Done()
	tick := time.NewTicker(s.cfg.MetricsInterval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			s.RecordSnapshot()
		case <-s.done:
			return
		}
	}
}

// RecordRows enqueues pre-built rows for a __system table without ever
// blocking; overflow drops the batch. The profiler enters here, and so does
// every Record* below.
func (s *Sink) RecordRows(table string, rows []rowblock.Row) {
	if s == nil || len(rows) == 0 {
		return
	}
	select {
	case <-s.done:
		return
	default:
	}
	select {
	case s.ch <- sinkBatch{table: table, rows: rows}:
	default:
		s.dropped.Add(1)
	}
}

// RecordSnapshot converts the registry's current snapshot into
// __system.metrics rows (one per metric, canonical snake_case names) and
// enqueues them. No-op without a registry.
func (s *Sink) RecordSnapshot() {
	if s == nil || s.cfg.Registry == nil {
		return
	}
	s.RecordRows(SystemMetricsTable, SnapshotRows(s.cfg.Registry.Snapshot(), s.cfg.Source, s.cfg.Clock().Unix()))
}

// RecordSpans converts finished spans into __system.traces rows, one per
// span under one column vocabulary — a traced query is a root row plus a row
// per leaf, a restart a row per step, all keyed by trace_id: "which leaf was
// slow" and "where did the restart go" are group-bys. An answering leaf's
// execution report is cells of its row. A cell is written only when it says
// something: an absent one reads back as the zero it would have held. Spans
// of queries against __system tables are suppressed (recursion). Row time is
// the span's start; t_us keeps it exact. It is an Observer.OnSpans hook, and
// SpanFromRow reads its rows back.
func (s *Sink) RecordSpans(spans Trace) {
	if s == nil {
		return
	}
	rows := make([]rowblock.Row, 0, len(spans))
	var cols map[string]rowblock.Value
	str := func(name, v string) {
		if v != "" {
			cols[name] = rowblock.StringValue(v)
		}
	}
	num := func(name string, v int64) {
		if v != 0 {
			cols[name] = rowblock.Int64Value(v)
		}
	}
	for _, sp := range spans {
		if sp.Kind != KindRestart && IsSystemTable(sp.Table) {
			continue
		}
		cols = make(map[string]rowblock.Value, 24)
		str("source", s.cfg.Source)
		num("trace_id", int64(sp.TraceID))
		num("span_id", int64(sp.SpanID))
		num("parent", int64(sp.Parent))
		str("kind", sp.Kind)
		str("half", sp.Half)
		str("phase", sp.Phase)
		str("leaf", sp.Leaf)
		str("table", sp.Table)
		num("worker", int64(sp.Worker))
		str("recovery", sp.Recovery)
		num("shards", int64(len(sp.Shards)))
		num("blocks", int64(sp.Blocks))
		num("bytes", sp.Bytes)
		num("t_us", sp.Start.UnixMicro())
		num("duration_us", sp.Duration.Microseconds())
		str("err", sp.Err)
		num("open", BoolValue(sp.Open).Int)
		str("query", sp.Query)
		num("shards_total", int64(sp.ShardsTotal))
		num("shards_answered", int64(sp.ShardsAnswered))
		num("slow", BoolValue(sp.Slow).Int)
		if e := sp.Exec; e != nil {
			num("latency_ns", e.LatencyNanos)
			num("decode_ns", e.DecodeNanos)
			num("prune_ns", e.PruneNanos)
			num("scan_ns", e.ScanNanos)
			num("merge_ns", e.MergeNanos)
			num("rows_scanned", e.RowsScanned)
			num("blocks_scanned", e.BlocksScanned)
			num("blocks_pruned", e.BlocksPruned)
			num("blocks_skipped", e.BlocksSkipped)
			num("cache_hits", e.CacheHits)
			num("cache_misses", e.CacheMisses)
			num("shards_served", int64(e.ShardsServed))
		}
		rows = append(rows, rowblock.Row{Time: sp.Start.Unix(), Cols: cols})
	}
	s.RecordRows(SystemTracesTable, rows)
}

// A reader of __system.traces groups by SpanKeys — what tells two spans
// apart, the 64-bit IDs among them, which a float64 aggregate cannot hold —
// and takes the max of each of SpanValues; SpanFromRow turns each group back
// into its span.
var (
	SpanKeys   = []string{"trace_id", "span_id", "parent", "kind", "half", "phase", "leaf", "table", "worker", "recovery", "err", "query"}
	SpanValues = []string{"t_us", "duration_us", "blocks", "bytes", "open", "shards_total", "shards_answered", "slow",
		"latency_ns", "decode_ns", "prune_ns", "scan_ns", "merge_ns", "rows_scanned", "blocks_scanned", "blocks_pruned",
		"blocks_skipped", "cache_hits", "cache_misses", "shards_served"}
)

// SpanFromRow rebuilds the span RecordSpans wrote from one group's key (in
// SpanKeys order) and values (in SpanValues order): its times cut to the
// table's microseconds, its shard list gone (the row keeps its length), and
// its ExecStats back when any execution cell was written.
func SpanFromRow(key []string, values []float64) Span {
	str := func(col string) string { return key[slices.Index(SpanKeys, col)] }
	// An ID is an int64 cell: a 64-bit span ID reads back negative.
	id := func(col string) uint64 { n, _ := strconv.ParseInt(str(col), 10, 64); return uint64(n) }
	num := func(col string) int64 { return int64(values[slices.Index(SpanValues, col)]) }
	sp := Span{TraceID: id("trace_id"), SpanID: id("span_id"), Parent: id("parent"), Kind: str("kind"),
		Half: str("half"), Phase: str("phase"), Leaf: str("leaf"), Table: str("table"), Worker: int(id("worker")),
		Recovery: str("recovery"), Err: str("err"), Query: str("query"),
		Start: time.UnixMicro(num("t_us")), Duration: time.Duration(num("duration_us")) * time.Microsecond,
		Blocks: int(num("blocks")), Bytes: num("bytes"), Open: num("open") != 0,
		ShardsTotal: int(num("shards_total")), ShardsAnswered: int(num("shards_answered")), Slow: num("slow") != 0}
	bare := ExecStats{SpanID: sp.SpanID, Table: sp.Table, Recovery: sp.Recovery}
	e := bare
	e.LatencyNanos, e.DecodeNanos, e.PruneNanos = num("latency_ns"), num("decode_ns"), num("prune_ns")
	e.ScanNanos, e.MergeNanos, e.RowsScanned = num("scan_ns"), num("merge_ns"), num("rows_scanned")
	e.BlocksScanned, e.BlocksPruned, e.BlocksSkipped = num("blocks_scanned"), num("blocks_pruned"), num("blocks_skipped")
	e.CacheHits, e.CacheMisses, e.ShardsServed = num("cache_hits"), num("cache_misses"), int(num("shards_served"))
	if e != bare {
		sp.Exec = &e
	}
	return sp
}

// Traces groups spans read back from __system.traces by trace ID, newest
// first. A trace lists its root first — the query span whose parent is not in
// the trace, so a subtree aggregator's root stays under the upstream leaf
// span it hangs from — then the rest by start; restart spans, which carry no
// span ID, that start in the same microsecond by phase, table and worker.
func Traces(spans []Span) []Trace {
	byID := make(map[uint64]Trace)
	for _, sp := range spans {
		byID[sp.TraceID] = append(byID[sp.TraceID], sp)
	}
	out := make([]Trace, 0, len(byID))
	for _, tr := range byID {
		ids := make(map[uint64]bool, len(tr))
		for _, sp := range tr {
			ids[sp.SpanID] = sp.SpanID != 0
		}
		rank := func(sp Span) int {
			if sp.Kind == KindQuery && !ids[sp.Parent] {
				return 0
			}
			return 1
		}
		slices.SortStableFunc(tr, func(a, b Span) int {
			return cmp.Or(cmp.Compare(rank(a), rank(b)), a.Start.Compare(b.Start), cmp.Compare(a.SpanID, b.SpanID),
				cmp.Compare(a.Phase, b.Phase), cmp.Compare(a.Table, b.Table), cmp.Compare(a.Worker, b.Worker))
		})
		out = append(out, tr)
	}
	slices.SortFunc(out, func(a, b Trace) int {
		return cmp.Or(b[0].Start.Compare(a[0].Start), cmp.Compare(a[0].TraceID, b[0].TraceID))
	})
	return out
}

// BoolValue is a flag column of a __system row: 1 or 0.
func BoolValue(b bool) rowblock.Value {
	if b {
		return rowblock.Int64Value(1)
	}
	return rowblock.Int64Value(0)
}

// RecordRecorderEvents converts flight-recorder events into
// __system.recorder rows. run labels which process the events belong to
// ("previous" for events recovered after a crash or restart, "current" for
// this process's own). Each row keeps the event's own µs timestamp so the
// crash timeline stays exact even though row time is in seconds.
func (s *Sink) RecordRecorderEvents(run string, events []Event) {
	if s == nil || len(events) == 0 {
		return
	}
	rows := make([]rowblock.Row, 0, len(events))
	for _, ev := range events {
		rows = append(rows, rowblock.Row{
			Time: ev.UnixMicros / 1e6,
			Cols: map[string]rowblock.Value{
				"source": rowblock.StringValue(s.cfg.Source),
				"run":    rowblock.StringValue(run),
				"seq":    rowblock.Int64Value(int64(ev.Seq)),
				"kind":   rowblock.StringValue(ev.Kind.String()),
				"phase":  rowblock.StringValue(ev.Phase),
				"detail": rowblock.StringValue(ev.Detail),
				"t_us":   rowblock.Int64Value(ev.UnixMicros),
			},
		})
	}
	s.RecordRows(SystemRecorderTable, rows)
}

// SnapshotRows converts a metrics snapshot into __system.metrics rows: one
// row per metric, named canonically, stamped with source and time. Timers
// and histograms flatten to count/sum/min/max/mean (+p50/p95/p99 for
// histograms), all durations in whole microseconds.
func SnapshotRows(snap metrics.Snapshot, source string, now int64) []rowblock.Row {
	rows := make([]rowblock.Row, 0,
		len(snap.Counters)+len(snap.Gauges)+len(snap.Timers)+len(snap.Histograms))
	base := func(typ, name string) map[string]rowblock.Value {
		return map[string]rowblock.Value{
			"source": rowblock.StringValue(source),
			"type":   rowblock.StringValue(typ),
			"name":   rowblock.StringValue(metrics.CanonicalName(name)),
		}
	}
	for name, v := range snap.Counters {
		cols := base("counter", name)
		cols["value"] = rowblock.Int64Value(v)
		rows = append(rows, rowblock.Row{Time: now, Cols: cols})
	}
	for name, g := range snap.Gauges {
		cols := base("gauge", name)
		cols["value"] = rowblock.Int64Value(g.Value)
		if g.Unit != "" {
			cols["unit"] = rowblock.StringValue(g.Unit)
		}
		rows = append(rows, rowblock.Row{Time: now, Cols: cols})
	}
	for name, st := range snap.Timers {
		cols := base("timer", name)
		cols["count"] = rowblock.Int64Value(st.Count)
		cols["sum_us"] = rowblock.Int64Value(st.Total.Microseconds())
		cols["min_us"] = rowblock.Int64Value(st.Min.Microseconds())
		cols["max_us"] = rowblock.Int64Value(st.Max.Microseconds())
		cols["mean_us"] = rowblock.Int64Value(st.Mean.Microseconds())
		rows = append(rows, rowblock.Row{Time: now, Cols: cols})
	}
	for name, st := range snap.Histograms {
		cols := base("histogram", name)
		cols["count"] = rowblock.Int64Value(st.Count)
		cols["sum"] = rowblock.Int64Value(st.Sum)
		cols["min"] = rowblock.Int64Value(st.Min)
		cols["max"] = rowblock.Int64Value(st.Max)
		cols["mean"] = rowblock.Int64Value(st.Mean())
		cols["p50"] = rowblock.Int64Value(st.P50)
		cols["p95"] = rowblock.Int64Value(st.P95)
		cols["p99"] = rowblock.Int64Value(st.P99)
		if st.IsDuration {
			cols["unit"] = rowblock.StringValue("us")
		}
		rows = append(rows, rowblock.Row{Time: now, Cols: cols})
	}
	return rows
}
