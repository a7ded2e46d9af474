package scuba_test

// The profiling keystone: a real subprocess cluster profiles itself. Every
// scubad leaf runs the continuous profiler at a fast cadence and ingests its
// own CPU/heap captures into __system.profiles; an in-process profiler
// shadows the aggregator's tracer so a slow query triggers an anomaly
// capture tagged with that query's trace ID. Both kinds of rows are read
// back through the same aggregator that was being profiled — and, because
// __system.profiles is a plain leaf table, a shared-memory rollover must
// serve every pre-restart capture afterwards too.

import (
	"sync/atomic"
	"testing"
	"time"

	"scuba"
)

// countProfileRows counts __system.profiles rows matching the filters
// through the aggregator.
func countProfileRows(t *testing.T, agg *scuba.Client, filters []scuba.Filter) float64 {
	t.Helper()
	q := &scuba.Query{
		Table:        scuba.SystemProfilesTable,
		From:         0,
		To:           1 << 62,
		Filters:      filters,
		Aggregations: []scuba.Aggregation{{Op: scuba.AggCount}},
	}
	res, err := agg.Query(q)
	if err != nil {
		t.Fatalf("querying %s: %v", scuba.SystemProfilesTable, err)
	}
	rows := res.Rows(q)
	if len(rows) == 0 {
		return 0
	}
	return rows[0].Values[0]
}

// waitForProfileRows polls until at least want matching rows are served
// (capture and delivery are both asynchronous by design).
func waitForProfileRows(t *testing.T, agg *scuba.Client, filters []scuba.Filter, want float64) float64 {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		got := countProfileRows(t, agg, filters)
		if got >= want {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s (%+v): %v rows after 15s, want >= %v",
				scuba.SystemProfilesTable, filters, got, want)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestProfilesAcrossRollover(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping subprocess profiling drill")
	}
	pc, err := scuba.StartProcCluster(scuba.ProcConfig{
		BinPath:          buildScubadBinary(t),
		Machines:         2,
		LeavesPerMachine: 1,
		WorkDir:          t.TempDir(),
		Namespace:        "profiles",
		ProfileInterval:  400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pc.Close)

	placer := pc.NewShardedPlacer()
	gen := scuba.ServiceLogs(11, 1700000000)
	for sent := 0; sent < 4000; sent += 1000 {
		if _, err := placer.Place("service_logs", gen.NextBatch(1000)); err != nil {
			t.Fatal(err)
		}
	}
	agg := pc.AggClient()

	// Phase 1: each leaf's steady cadence delivers interval captures into
	// its own store; the "(total)" row makes even an idle window visible.
	intervalFilter := []scuba.Filter{{Column: "trigger", Op: scuba.OpEq, Str: scuba.ProfileTriggerInterval}}
	waitForProfileRows(t, agg, intervalFilter, 2)
	perSource := &scuba.Query{
		Table:        scuba.SystemProfilesTable,
		From:         0,
		To:           1 << 62,
		GroupBy:      []string{"source"},
		Filters:      intervalFilter,
		Aggregations: []scuba.Aggregation{{Op: scuba.AggCount}},
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		res, err := agg.Query(perSource)
		if err != nil {
			t.Fatal(err)
		}
		sources := res.Rows(perSource)
		if len(sources) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("interval captures from %d sources after 15s, want every leaf (2): %+v",
				len(sources), sources)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Phase 2: an in-process profiler shadows the aggregator's tracer, the
	// way scuba-aggd composes them. A 1ns slow threshold makes the next
	// service_logs query an anomaly; the capture it triggers must carry
	// that query's trace ID. (OnSpans ignores __system queries, so the
	// polling above and below can never trigger captures of its own.)
	emit := func(table string, rows []scuba.Row) error {
		var lastErr error
		for _, l := range pc.Leaves() {
			if err := l.Client().AddRows(table, rows); err != nil {
				lastErr = err
				continue
			}
			return nil
		}
		return lastErr
	}
	sink := scuba.NewTelemetrySink(scuba.TelemetrySinkConfig{
		Emit:            emit,
		Source:          "aggd",
		MetricsInterval: -1, // delivery-only
	})
	defer sink.Close()
	prof := scuba.NewProfiler(scuba.ProfilerConfig{
		Sink:     sink,
		Source:   "aggd",
		Interval: -1, // anomalies only; the leaves cover the steady cadence
	})
	defer prof.Close()
	var slowTraceID atomic.Uint64
	ob := scuba.NewObserver(nil, nil)
	ob.OnSpans(prof.OnSpans, func(tr scuba.Trace) {
		if root := tr.Root(); root.Table == "service_logs" {
			slowTraceID.CompareAndSwap(0, root.TraceID)
		}
	})
	pc.Aggregator().Tracer = ob.Tracer(scuba.TracerOptions{SlowThreshold: time.Nanosecond})

	slowQ := &scuba.Query{
		Table:        "service_logs",
		From:         0,
		To:           1 << 62,
		GroupBy:      []string{"service"},
		Aggregations: []scuba.Aggregation{{Op: scuba.AggCount}},
	}
	if _, err := agg.Query(slowQ); err != nil {
		t.Fatal(err)
	}
	traceID := slowTraceID.Load()
	if traceID == 0 {
		t.Fatal("aggregator tracer recorded no service_logs trace")
	}
	anomalyFilter := []scuba.Filter{
		{Column: "trigger", Op: scuba.OpEq, Str: scuba.ProfileTriggerSlowQuery},
		{Column: "trace_id", Op: scuba.OpEq, Int: int64(traceID), Float: float64(traceID)},
	}
	waitForProfileRows(t, agg, anomalyFilter, 1)

	// Phase 3: freeze a cutoff and restart every leaf through shared
	// memory. Every capture row served before the restarts must still be
	// served after them — profiles ride the same restart path as the data
	// they describe.
	time.Sleep(50 * time.Millisecond) // let in-flight captures land before the cutoff
	cutoff := time.Now().UnixMicro()
	cutFilter := func(extra ...scuba.Filter) []scuba.Filter {
		return append([]scuba.Filter{
			{Column: "t_us", Op: scuba.OpLe, Int: cutoff, Float: float64(cutoff)},
		}, extra...)
	}
	beforeAll := countProfileRows(t, agg, cutFilter())
	beforeAnomaly := countProfileRows(t, agg, cutFilter(anomalyFilter...))
	if beforeAnomaly < 1 {
		t.Fatalf("no tagged anomaly rows before the rollover cutoff")
	}

	if _, err := pc.Rollover(scuba.RolloverConfig{
		BatchFraction: 0.5,
		MaxPerMachine: 1,
		UseShm:        true,
		KillTimeout:   time.Minute,
	}); err != nil {
		t.Fatalf("rollover: %v", err)
	}

	afterAll := countProfileRows(t, agg, cutFilter())
	if afterAll != beforeAll {
		t.Errorf("pre-cutoff profile rows after rollover = %v, want %v (captures lost in restart)",
			afterAll, beforeAll)
	}
	afterAnomaly := countProfileRows(t, agg, cutFilter(anomalyFilter...))
	if afterAnomaly != beforeAnomaly {
		t.Errorf("tagged anomaly rows after rollover = %v, want %v", afterAnomaly, beforeAnomaly)
	}

	// The restarted leaves keep profiling: fresh interval captures arrive
	// with the same flags on the new processes.
	waitForProfileRows(t, agg,
		[]scuba.Filter{
			{Column: "trigger", Op: scuba.OpEq, Str: scuba.ProfileTriggerInterval},
			{Column: "t_us", Op: scuba.OpGt, Int: cutoff, Float: float64(cutoff)},
		}, 1)
	t.Logf("profiles: %v rows (%v slow-query-tagged, trace %d) survived a shared-memory rollover",
		beforeAll, beforeAnomaly, traceID)
}
