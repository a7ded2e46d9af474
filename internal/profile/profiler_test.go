package profile

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scuba/internal/metrics"
	"scuba/internal/obs"
	"scuba/internal/rowblock"
)

// rowTrap is a sink Emit that records everything delivered.
type rowTrap struct {
	mu   sync.Mutex
	rows []rowblock.Row
}

func (rt *rowTrap) emit(table string, rows []rowblock.Row) error {
	if table != obs.SystemProfilesTable {
		return nil
	}
	rt.mu.Lock()
	rt.rows = append(rt.rows, rows...)
	rt.mu.Unlock()
	return nil
}

func (rt *rowTrap) snapshot() []rowblock.Row {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return append([]rowblock.Row(nil), rt.rows...)
}

// byTrigger returns the trapped rows whose trigger column matches.
func (rt *rowTrap) byTrigger(trigger string) []rowblock.Row {
	var out []rowblock.Row
	for _, r := range rt.snapshot() {
		if r.Cols["trigger"].Str == trigger {
			out = append(out, r)
		}
	}
	return out
}

func newTestProfiler(t *testing.T, trap *rowTrap, mut func(*Config)) *Profiler {
	t.Helper()
	sink := obs.NewSink(obs.SinkConfig{
		Emit:            trap.emit,
		Source:          "test-leaf",
		MetricsInterval: -1,
	})
	t.Cleanup(sink.Close)
	cfg := Config{
		Sink:     sink,
		Source:   "test-leaf",
		Interval: -1, // no steady loop; tests drive captures directly
	}
	if mut != nil {
		mut(&cfg)
	}
	p := New(cfg)
	t.Cleanup(p.Close)
	p.anomalyWindow = 20 * time.Millisecond
	return p
}

// waitRows polls until cond sees the trapped rows it wants.
func waitRows(t *testing.T, sink func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if sink() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("timed out waiting for profile rows")
}

func TestCaptureEmitsTotalAndSchema(t *testing.T) {
	trap := &rowTrap{}
	p := newTestProfiler(t, trap, nil)
	if !p.CaptureNow(TriggerInterval, "", 0) {
		t.Fatal("CaptureNow failed")
	}
	waitRows(t, func() bool { return len(trap.byTrigger(TriggerInterval)) > 0 })
	rows := trap.byTrigger(TriggerInterval)
	var total *rowblock.Row
	for i := range rows {
		if rows[i].Cols["function"].Str == TotalFunction {
			total = &rows[i]
		}
	}
	if total == nil {
		t.Fatalf("no %q row in %d rows", TotalFunction, len(rows))
	}
	for _, col := range []string{"source", "capture", "t_us", "trigger", "trace_id", "detail", "function", "flat_ns", "cum_ns", "alloc_bytes", "inuse_bytes", "goroutines", "window_ms"} {
		if _, ok := total.Cols[col]; !ok {
			t.Errorf("total row missing column %q", col)
		}
	}
	if total.Cols["source"].Str != "test-leaf" {
		t.Errorf("source = %q", total.Cols["source"].Str)
	}
	if total.Cols["goroutines"].Int <= 0 {
		t.Errorf("goroutines = %d", total.Cols["goroutines"].Int)
	}
	if total.Cols["window_ms"].Int <= 0 {
		t.Errorf("window_ms = %d", total.Cols["window_ms"].Int)
	}
	if total.Cols["t_us"].Int <= 0 || total.Cols["capture"].Str == "" {
		t.Errorf("capture id missing: t_us=%d capture=%q", total.Cols["t_us"].Int, total.Cols["capture"].Str)
	}
}

func TestSlowQueryTriggersTaggedCapture(t *testing.T) {
	trap := &rowTrap{}
	p := newTestProfiler(t, trap, nil)

	p.OnSpans(obs.Trace{{Kind: obs.KindQuery, Slow: false, TraceID: 1, Table: "events"}})
	p.OnSpans(obs.Trace{{Kind: obs.KindQuery, Slow: true, TraceID: 2, Table: obs.SystemMetricsTable}})
	p.OnSpans(obs.Trace{{Kind: obs.KindQuery, Slow: true, TraceID: 4242, Table: "events", Query: "SELECT count FROM events"},
		{Kind: obs.KindQueryLeaf, TraceID: 4242, Table: "events", Leaf: "leaf0"}})

	waitRows(t, func() bool { return len(trap.byTrigger(TriggerSlowQuery)) > 0 })
	rows := trap.byTrigger(TriggerSlowQuery)
	for _, r := range rows {
		if got := r.Cols["trace_id"].Int; got != 4242 {
			t.Fatalf("trace_id = %d, want 4242 (non-slow or __system trace leaked through)", got)
		}
		if !strings.Contains(r.Cols["detail"].Str, "SELECT count") {
			t.Fatalf("detail = %q", r.Cols["detail"].Str)
		}
	}
}

func TestAnomalyCooldown(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	trap := &rowTrap{}
	p := newTestProfiler(t, trap, func(c *Config) {
		c.Clock = func() time.Time { return now }
	})
	if !p.TriggerCapture(TriggerSlowQuery, "first", 1) {
		t.Fatal("first anomaly should always capture")
	}
	if p.TriggerCapture(TriggerSlowQuery, "second", 2) {
		t.Fatal("second anomaly inside the cooldown should drop")
	}
	now = now.Add(anomalyCooldown - time.Nanosecond)
	if p.TriggerCapture(TriggerSlowQuery, "third", 3) {
		t.Fatal("anomaly a nanosecond before the cooldown ends should drop")
	}
	now = now.Add(time.Nanosecond)
	if !p.TriggerCapture(TriggerSlowQuery, "fourth", 4) {
		t.Fatal("anomaly after the cooldown should capture")
	}
}

// The budget check lives in the restart ledger's ActiveSpan.End, which marks
// the span Slow; the profiler only turns the slow span it is handed into a
// capture tagged with the restart's trace. The ledger hands its spans over
// once the leaf is ALIVE.
func TestRestartSpanOverBudgetCaptures(t *testing.T) {
	trap := &rowTrap{}
	p := newTestProfiler(t, trap, nil)
	ob := obs.New(nil, nil)
	ob.SetBudget(20 * time.Millisecond)
	ob.OnSpans(p.OnSpans)
	r := ob.Restart(obs.HalfStart)
	r.Begin(obs.PhaseMap, "", -1).End(nil) // under budget
	sp := r.Begin(obs.PhaseTableReplay, "events", 0)
	sp.Recovery = "wal"
	time.Sleep(30 * time.Millisecond) // over budget
	sp.End(nil)
	r.Begin(obs.PhaseAlive, "", -1).End(nil)

	waitRows(t, func() bool { return len(trap.byTrigger(TriggerRestart)) > 0 })
	for _, r2 := range trap.byTrigger(TriggerRestart) {
		d := r2.Cols["detail"].Str
		if !strings.Contains(d, "phase="+obs.PhaseTableReplay) || !strings.Contains(d, "table=events") || !strings.Contains(d, "source=wal") {
			t.Fatalf("detail = %q (under-budget phase must not capture)", d)
		}
		if got := uint64(r2.Cols["trace_id"].Int); got != r.TraceID() {
			t.Fatalf("capture tagged with trace %d, want the restart's %d", got, r.TraceID())
		}
	}
}

func TestGCPauseSpikeTriggersCapture(t *testing.T) {
	reg := metrics.NewRegistry()
	trap := &rowTrap{}
	// Every clock read is an hour after the last, past the cooldown: only
	// the new-GC gate may hold a capture back.
	var hours atomic.Int64
	p := newTestProfiler(t, trap, func(c *Config) {
		c.Registry = reg
		c.Clock = func() time.Time { return time.Unix(hours.Add(1)*3600, 0) }
	})
	// No data yet: no trigger.
	p.checkGCPause()
	// A 100ms pause lands the p99 over the 50ms budget.
	reg.Timer("runtime.gc_pause").Observe(100 * time.Millisecond)
	p.checkGCPause()
	waitRows(t, func() bool { return len(trap.byTrigger(TriggerGCPause)) > 0 })
	before := len(trap.byTrigger(TriggerGCPause))
	// p99 is still over budget but no new GCs happened: must not re-trigger.
	p.checkGCPause()
	time.Sleep(100 * time.Millisecond)
	if after := len(trap.byTrigger(TriggerGCPause)); after != before {
		t.Fatalf("re-triggered without new GCs: %d -> %d rows", before, after)
	}
}

func TestSelfCounters(t *testing.T) {
	reg := metrics.NewRegistry()
	trap := &rowTrap{}
	p := newTestProfiler(t, trap, func(c *Config) { c.Registry = reg })
	p.CaptureNow(TriggerInterval, "", 0)
	p.TriggerCapture(TriggerSlowQuery, "", 1)
	p.TriggerCapture(TriggerSlowQuery, "", 2) // dropped by cooldown
	waitRows(t, func() bool { return len(trap.byTrigger(TriggerSlowQuery)) > 0 })
	snap := reg.Snapshot()
	if snap.Counters["profile.captures"] < 2 {
		t.Errorf("profile.captures = %d, want >= 2", snap.Counters["profile.captures"])
	}
	if snap.Counters["profile.anomalies"] < 1 {
		t.Errorf("profile.anomalies = %d", snap.Counters["profile.anomalies"])
	}
	if snap.Counters["profile.dropped"] < 1 {
		t.Errorf("profile.dropped = %d", snap.Counters["profile.dropped"])
	}
}

func TestSteadyCadence(t *testing.T) {
	trap := &rowTrap{}
	sink := obs.NewSink(obs.SinkConfig{Emit: trap.emit, Source: "cadence", MetricsInterval: -1})
	defer sink.Close()
	p := New(Config{
		Sink:     sink,
		Source:   "cadence",
		Interval: 80 * time.Millisecond, // window auto-clamps to interval/2
	})
	defer p.Close()
	waitRows(t, func() bool { return len(trap.byTrigger(TriggerInterval)) >= 2 })
}

func TestNilProfilerIsSafe(t *testing.T) {
	var p *Profiler
	p.Close()
	p.OnSpans(obs.Trace{{Kind: obs.KindQuery, Slow: true},
		{Kind: obs.KindRestart, Slow: true, Phase: obs.PhaseCopyIn, Duration: time.Hour}})
	if p.TriggerCapture("x", "", 0) || p.CaptureNow("x", "", 0) {
		t.Fatal("nil profiler captured")
	}
}
