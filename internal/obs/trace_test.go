package obs

import (
	"sync"
	"testing"
	"time"

	"scuba/internal/metrics"
)

// mkTrace builds a query trace the way the aggregator does: the root, then
// the leaf spans under it.
func mkTrace(id uint64, d time.Duration, leaves ...Span) Trace {
	tr := Trace{{TraceID: id, SpanID: 1 << 40, Kind: KindQuery, Query: "SELECT count() FROM events",
		Start: time.Unix(1000, 0), Duration: d}}
	for _, sp := range leaves {
		sp.TraceID, sp.Parent, sp.Kind = id, 1<<40, KindQueryLeaf
		tr = append(tr, sp)
	}
	return tr
}

// recorded returns a tracer whose observer's span hook keeps every trace the
// tracer files, and what the hook has seen so far, in order.
func recorded(opts TracerOptions) (*Tracer, func() []Trace) {
	var mu sync.Mutex
	var seen []Trace
	ob := New(nil, nil)
	ob.OnSpans(func(tr Trace) {
		mu.Lock()
		defer mu.Unlock()
		seen = append(seen, tr)
	})
	return ob.Tracer(opts), func() []Trace {
		mu.Lock()
		defer mu.Unlock()
		return append([]Trace(nil), seen...)
	}
}

// slowIDs lists the trace IDs of the traces whose root was marked slow.
func slowIDs(traces []Trace) []uint64 {
	var out []uint64
	for _, tr := range traces {
		if tr.Root().Slow {
			out = append(out, tr.Root().TraceID)
		}
	}
	return out
}

func TestRandomIDNonzero(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		id := RandomID()
		if id == 0 {
			t.Fatal("RandomID returned 0")
		}
		if seen[id] {
			t.Fatalf("RandomID repeated %d within 1000 draws", id)
		}
		seen[id] = true
	}
	var nilTracer *Tracer
	if got := nilTracer.NewTraceID(); got != 0 {
		t.Fatalf("nil tracer NewTraceID = %d, want 0 (untraced)", got)
	}
}

func TestFixedSlowThreshold(t *testing.T) {
	tr, seen := recorded(TracerOptions{SlowThreshold: 100 * time.Millisecond})
	if tr.Record(mkTrace(1, 50*time.Millisecond)) {
		t.Fatal("50ms marked slow under a 100ms threshold")
	}
	if !tr.Record(mkTrace(2, 150*time.Millisecond)) {
		t.Fatal("150ms not marked slow under a 100ms threshold")
	}
	if slow := slowIDs(seen()); len(seen()) != 2 || len(slow) != 1 || slow[0] != 2 {
		t.Fatalf("hook saw slow roots %v of %+v", slow, seen())
	}
}

func TestAdaptiveSlowThreshold(t *testing.T) {
	tr := New(nil, nil).Tracer(TracerOptions{})
	// Below adaptiveMinSamples nothing is slow, however extreme.
	if tr.Record(mkTrace(1, time.Hour)) {
		t.Fatal("flagged slow before adaptiveMinSamples latencies observed")
	}
	// Feed a tight 1ms workload, then an outlier: the outlier must land in
	// be flagged, and a typical query must not.
	for i := 0; i < 64; i++ {
		tr.Record(mkTrace(uint64(100+i), time.Millisecond))
	}
	if tr.Record(mkTrace(2, time.Millisecond)) {
		t.Fatal("typical latency flagged slow by adaptive threshold")
	}
	if !tr.Record(mkTrace(3, 500*time.Millisecond)) {
		t.Fatal("500x-p99 outlier not flagged slow")
	}
}

func TestSpanDedupe(t *testing.T) {
	tr, seen := recorded(TracerOptions{})
	// Three records of span 7 (a retried RPC observed three ways) plus an
	// unrelated span: the answered attempt must win, order preserved.
	tr.Record(mkTrace(1, time.Millisecond,
		Span{SpanID: 7, Leaf: "a", Err: "conn reset"},
		Span{SpanID: 9, Leaf: "b"},
		Span{SpanID: 7, Leaf: "a", Exec: &ExecStats{SpanID: 7, RowsScanned: 42}},
		Span{SpanID: 7, Leaf: "a", Exec: &ExecStats{SpanID: 7, RowsScanned: 1}},
	))
	got := seen()[0].Leaves()
	if len(got) != 2 {
		t.Fatalf("spans after dedupe = %d, want 2: %+v", len(got), got)
	}
	if got[0].SpanID != 7 || got[0].Err != "" || got[0].Exec == nil || got[0].Exec.RowsScanned != 42 {
		t.Fatalf("dedupe kept wrong attempt: %+v", got[0])
	}
	if got[1].SpanID != 9 {
		t.Fatalf("unrelated span displaced: %+v", got[1])
	}
}

func TestTracerMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := New(reg, nil).Tracer(TracerOptions{SlowThreshold: 10 * time.Millisecond})
	tr.Record(mkTrace(1, time.Millisecond))
	tr.Record(mkTrace(2, 20*time.Millisecond))
	snap := reg.Snapshot()
	if snap.Counters["trace.count"] != 2 || snap.Counters["trace.slow"] != 1 {
		t.Fatalf("trace counters = %v", snap.Counters)
	}
}

func TestDominantPhase(t *testing.T) {
	e := &ExecStats{DecodeNanos: 10, PruneNanos: 5, ScanNanos: 80, MergeNanos: 5}
	if phase, v := e.DominantPhase(); phase != "scan" || v != 80 {
		t.Fatalf("DominantPhase = %s/%d, want scan/80", phase, v)
	}
	if phase, v := new(ExecStats).DominantPhase(); phase != "" || v != 0 {
		t.Fatalf("empty DominantPhase = %s/%d, want empty", phase, v)
	}
}

func TestSlowestLeaf(t *testing.T) {
	tr := mkTrace(1, time.Second,
		Span{SpanID: 1, Leaf: "a", Duration: 100},
		Span{SpanID: 2, Leaf: "b", Duration: 999, Err: "abandoned at leaf deadline"}, // unanswered never wins
		Span{SpanID: 3, Leaf: "c", Duration: 300},
	)
	if sp := tr.Slowest(); sp.Leaf != "c" {
		t.Fatalf("Slowest = %+v, want leaf c (not the root, not the failed leaf)", sp)
	}
	if n, of := tr.Leaves().Answered(), len(tr.Leaves()); n != 2 || of != 3 {
		t.Fatalf("coverage over the children = %d/%d, want 2/3", n, of)
	}
	if sp := mkTrace(2, time.Second).Slowest(); sp.SpanID != 0 {
		t.Fatalf("Slowest on a trace with no leaves = %+v", sp)
	}
}

// Concurrent queries file their traces through one tracer: each reaches the
// hook once, and the counters see every one.
func TestTracerConcurrency(t *testing.T) {
	reg := metrics.NewRegistry()
	var mu sync.Mutex
	seen := make(map[uint64]int)
	ob := New(reg, nil)
	ob.OnSpans(func(tr Trace) {
		mu.Lock()
		defer mu.Unlock()
		seen[tr.Root().TraceID]++
	})
	tr := ob.Tracer(TracerOptions{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				tr.Record(mkTrace(tr.NewTraceID(), time.Millisecond, Span{SpanID: RandomID()}))
			}
		}()
	}
	wg.Wait()
	if n := reg.Snapshot().Counters["trace.count"]; len(seen) != 1000 || n != 1000 {
		t.Fatalf("hook saw %d distinct traces, trace.count = %d; want 1000 each", len(seen), n)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("trace %d reached the hook %d times", id, n)
		}
	}
}
