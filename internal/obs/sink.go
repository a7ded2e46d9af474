package obs

// Scuba-on-Scuba: the self-telemetry sink feeds the system's own
// observability data — metric-registry snapshots, completed trace
// summaries, flight-recorder events, rollover timelines, scraped leaf
// state — back through the normal ingest path into reserved __system.*
// tables, so operators query the cluster's health with the same query
// engine the cluster serves. Because __system tables are ordinary leaf
// tables, they ride the shm restart path: restart history survives
// restarts.
//
// Two rules keep the loop from feeding on itself:
//
//   - recursion suppression: traces of queries against __system.* tables
//     are never converted into __system.traces rows (RecordTrace checks
//     IsSystemTable on the trace's table), so health dashboards polling
//     the system tables do not generate telemetry about their own polls;
//   - the hot path never blocks on telemetry: every Record* call is a
//     non-blocking enqueue onto a bounded queue drained by one background
//     goroutine; overflow drops the batch and counts sink.dropped.

import (
	"fmt"
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
	// SystemTracesTable holds completed distributed-trace summaries (one row
	// per query) and restart traces (one row per span).
	SystemTracesTable = "__system.traces"
	// SystemRecorderTable holds flight-recorder events — including the
	// previous run's events recovered after a crash, so crash forensics
	// are queryable, not just logged at boot.
	SystemRecorderTable = "__system.recorder"
	// SystemRolloverTable holds rolling-restart timelines: per-restart
	// outcomes and the availability probe's coverage/latency points.
	SystemRolloverTable = "__system.rollover"
	// SystemLeafMetricsTable holds the aggregator's cluster-scraper view:
	// one row per ACTIVE leaf per scrape with its stats, key counters and
	// shard-coverage state.
	SystemLeafMetricsTable = "__system.leaf_metrics"
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
	// TraceSampleN keeps 1 in N non-slow traces (default 1 = all); slow
	// traces are always kept.
	TraceSampleN int
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

	mu      sync.Mutex
	nTraces int64
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
	if cfg.TraceSampleN <= 0 {
		cfg.TraceSampleN = 1
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
	}
	if reg := cfg.Registry; reg != nil {
		s.rowsCount = reg.Counter("sink.rows")
		s.dropped = reg.Counter("sink.dropped")
		s.errors = reg.Counter("sink.errors")
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
		if s.errors != nil {
			s.errors.Add(1)
		}
		if s.cfg.OnError != nil {
			s.cfg.OnError(fmt.Errorf("obs: sink emit %s: %w", b.table, err))
		}
		return
	}
	if s.rowsCount != nil {
		s.rowsCount.Add(int64(len(b.rows)))
	}
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

// put enqueues one batch without ever blocking; overflow drops it.
func (s *Sink) put(table string, rows []rowblock.Row) {
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
		if s.dropped != nil {
			s.dropped.Add(1)
		}
	}
}

// RecordRows enqueues pre-built rows for a __system table — the generic
// entry point used by the cluster scraper and the rollover driver.
func (s *Sink) RecordRows(table string, rows []rowblock.Row) {
	s.put(table, rows)
}

// RecordSnapshot converts the registry's current snapshot into
// __system.metrics rows (one per metric, canonical snake_case names) and
// enqueues them. No-op without a registry.
func (s *Sink) RecordSnapshot() {
	if s == nil || s.cfg.Registry == nil {
		return
	}
	s.put(SystemMetricsTable, SnapshotRows(s.cfg.Registry.Snapshot(), s.cfg.Source, s.cfg.Clock().Unix()))
}

// RecordTrace converts one completed trace into a __system.traces row.
// Traces of queries against __system tables are suppressed (recursion), and
// non-slow traces are sampled 1-in-TraceSampleN. Wire it as the tracer's
// OnRecord hook.
func (s *Sink) RecordTrace(tr Trace) {
	if s == nil || IsSystemTable(tr.Table) {
		return
	}
	if !tr.Slow && s.cfg.TraceSampleN > 1 {
		s.mu.Lock()
		n := s.nTraces
		s.nTraces++
		s.mu.Unlock()
		if n%int64(s.cfg.TraceSampleN) != 0 {
			return
		}
	}
	row := rowblock.Row{
		Time: s.cfg.Clock().Unix(),
		Cols: map[string]rowblock.Value{
			"source":          rowblock.StringValue(s.cfg.Source),
			"trace_id":        rowblock.Int64Value(int64(tr.TraceID)),
			"query":           rowblock.StringValue(tr.Query),
			"table":           rowblock.StringValue(tr.Table),
			"duration_us":     rowblock.Int64Value(tr.DurationNanos / 1e3),
			"leaves_total":    rowblock.Int64Value(int64(tr.LeavesTotal)),
			"leaves_answered": rowblock.Int64Value(int64(tr.LeavesAnswered)),
			"shards_total":    rowblock.Int64Value(int64(tr.ShardsTotal)),
			"shards_answered": rowblock.Int64Value(int64(tr.ShardsAnswered)),
			"slow":            BoolValue(tr.Slow),
			"spans":           rowblock.Int64Value(int64(len(tr.Spans))),
		},
	}
	s.put(SystemTracesTable, []rowblock.Row{row})
}

// BoolValue is a flag column of a __system row: 1 or 0.
func BoolValue(b bool) rowblock.Value {
	if b {
		return rowblock.Int64Value(1)
	}
	return rowblock.Int64Value(0)
}

// RecordRestartSpans converts restart spans into __system.traces rows, one
// per span, beside the query traces and keyed by the same trace_id column:
// "where did the restart go" is a group-by over phase and table. Row time is
// the span's start; t_us keeps it exact.
func (s *Sink) RecordRestartSpans(spans []RestartSpan) {
	if s == nil || len(spans) == 0 {
		return
	}
	rows := make([]rowblock.Row, 0, len(spans))
	for _, sp := range spans {
		rows = append(rows, rowblock.Row{
			Time: sp.Start.Unix(),
			Cols: map[string]rowblock.Value{
				"source":      rowblock.StringValue(s.cfg.Source),
				"trace_id":    rowblock.Int64Value(int64(sp.TraceID)),
				"half":        rowblock.StringValue(sp.Half),
				"phase":       rowblock.StringValue(sp.Phase),
				"table":       rowblock.StringValue(sp.Table),
				"worker":      rowblock.Int64Value(int64(sp.Worker)),
				"recovery":    rowblock.StringValue(sp.Source),
				"blocks":      rowblock.Int64Value(int64(sp.Blocks)),
				"bytes":       rowblock.Int64Value(sp.Bytes),
				"t_us":        rowblock.Int64Value(sp.Start.UnixMicro()),
				"duration_us": rowblock.Int64Value(sp.Duration.Microseconds()),
				"err":         rowblock.StringValue(sp.Err),
				"open":        BoolValue(sp.Open),
			},
		})
	}
	s.put(SystemTracesTable, rows)
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
				"kind":   rowblock.StringValue(ev.KindName),
				"phase":  rowblock.StringValue(ev.Phase),
				"detail": rowblock.StringValue(ev.Detail),
				"t_us":   rowblock.Int64Value(ev.UnixMicros),
			},
		})
	}
	s.put(SystemRecorderTable, rows)
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
