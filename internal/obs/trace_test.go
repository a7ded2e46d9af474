package obs

import (
	"reflect"
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

// ids lists the trace IDs of a ring dump.
func ids(traces []Trace) []uint64 {
	out := make([]uint64, len(traces))
	for i, tr := range traces {
		out[i] = tr.Root().TraceID
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

func TestTracerRingBounds(t *testing.T) {
	tr := NewTracer(TracerOptions{Capacity: 4, SlowThreshold: time.Millisecond})
	for i := 1; i <= 40; i++ {
		tr.Record(mkTrace(uint64(i), 2*time.Millisecond)) // all slow
	}
	if recent := ids(tr.Recent()); !reflect.DeepEqual(recent, []uint64{40, 39, 38, 37}) {
		t.Fatalf("recent = %v, want the newest 4 of 40, newest first", recent)
	}
	if slow := ids(tr.Slow()); len(slow) != slowRingCapacity || slow[0] != 40 || slow[1] != 39 {
		t.Fatalf("slow ring = %v, want the newest %d", slow, slowRingCapacity)
	}
	if got := tr.Get(39); got.Root().TraceID != 39 {
		t.Fatalf("Get(39) = %+v (still in recent ring)", got)
	}
	if got := tr.Get(20); got.Root().TraceID != 20 {
		t.Fatalf("Get(20) = %+v (still in the slow ring)", got)
	}
	if got := tr.Get(1); got != nil {
		t.Fatalf("Get(1) = %+v, want nil (rotated out of both rings)", got)
	}
}

func TestFixedSlowThreshold(t *testing.T) {
	tr := NewTracer(TracerOptions{SlowThreshold: 100 * time.Millisecond})
	if tr.Record(mkTrace(1, 50*time.Millisecond)) {
		t.Fatal("50ms marked slow under a 100ms threshold")
	}
	if !tr.Record(mkTrace(2, 150*time.Millisecond)) {
		t.Fatal("150ms not marked slow under a 100ms threshold")
	}
	slow := tr.Slow()
	if len(slow) != 1 || slow[0].Root().TraceID != 2 || !slow[0].Root().Slow {
		t.Fatalf("slow ring = %+v", slow)
	}
}

func TestAdaptiveSlowThreshold(t *testing.T) {
	tr := NewTracer(TracerOptions{})
	// Below adaptiveMinSamples nothing is slow, however extreme.
	if tr.Record(mkTrace(1, time.Hour)) {
		t.Fatal("flagged slow before adaptiveMinSamples latencies observed")
	}
	// Feed a tight 1ms workload, then an outlier: the outlier must land in
	// the slow ring, and a typical query must not.
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
	tr := NewTracer(TracerOptions{})
	// Three records of span 7 (a retried RPC observed three ways) plus an
	// unrelated span: the answered attempt must win, order preserved.
	tr.Record(mkTrace(1, time.Millisecond,
		Span{SpanID: 7, Leaf: "a", Err: "conn reset"},
		Span{SpanID: 9, Leaf: "b"},
		Span{SpanID: 7, Leaf: "a", Exec: &ExecStats{SpanID: 7, RowsScanned: 42}},
		Span{SpanID: 7, Leaf: "a", Exec: &ExecStats{SpanID: 7, RowsScanned: 1}},
	))
	got := tr.Recent()[0].Leaves()
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

func TestTracerConcurrency(t *testing.T) {
	tr := NewTracer(TracerOptions{Capacity: 8})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			tr.Record(mkTrace(RandomID(), time.Millisecond,
				Span{SpanID: RandomID()}))
		}
	}()
	for i := 0; i < 500; i++ {
		tr.Recent()
		tr.Slow()
		tr.Get(uint64(i))
	}
	<-done
}
