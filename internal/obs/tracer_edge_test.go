package obs

import (
	"testing"
	"time"
)

// Adaptive slow-query sampling edge cases pinned: the warm-up window and ties
// at the running p99.

// During the first adaptiveMinSamples observations the adaptive sampler must stay
// silent — there is no distribution to judge against yet — no matter how
// slow the queries are.
func TestTracerAdaptiveWarmupNeverSlow(t *testing.T) {
	tr, seen := recorded(TracerOptions{})
	for i := 0; i < adaptiveMinSamples; i++ {
		d := time.Duration(i+1) * time.Hour // absurdly slow
		if tr.Record(mkTrace(uint64(i+1), d)) {
			t.Fatalf("sample %d flagged slow during warm-up", i)
		}
	}
	if slow := slowIDs(seen()); len(slow) != 0 {
		t.Fatalf("hook saw slow roots %v during warm-up", slow)
	}
}

// A latency exactly equal to the running p99 is NOT slow: in a tight uniform
// workload the typical latency is the p99 estimate, and nothing should be
// flagged until a genuine outlier arrives.
func TestTracerAdaptiveTieAtP99(t *testing.T) {
	tr, seen := recorded(TracerOptions{})
	d := 1024 * time.Microsecond // exact power of two: bucket midpoint clamps to it
	for i := 0; i < 32; i++ {
		tr.Record(mkTrace(uint64(i+1), d))
	}
	// Past warm-up now. The same latency again ties the running p99.
	if tr.Record(mkTrace(100, d)) {
		t.Fatal("tie at running p99 flagged slow; rule is strictly-above")
	}
	// A real outlier is caught.
	if !tr.Record(mkTrace(101, (100 * d))) {
		t.Fatal("100x outlier not flagged slow")
	}
	if slow := slowIDs(seen()); len(slow) != 1 || slow[0] != 101 {
		t.Fatalf("hook saw slow roots %v, want [101]", slow)
	}
}

// The finished-span hook observes every recorded trace after
// classification, with the root's Slow already set.
func TestTracerFeedsTheSpanHook(t *testing.T) {
	var seen []Trace
	ob := New(nil, nil)
	ob.OnSpans(func(tr Trace) { seen = append(seen, tr) })
	tr := ob.Tracer(TracerOptions{SlowThreshold: time.Millisecond})
	tr.Record(mkTrace(1, 2*time.Millisecond, Span{SpanID: 5, Leaf: "a"}))
	tr.Record(mkTrace(2, time.Microsecond))
	if len(seen) != 2 || len(seen[0]) != 2 {
		t.Fatalf("hook saw %+v, want 2 traces, the first a root and a leaf", seen)
	}
	if !seen[0].Root().Slow || seen[1].Root().Slow {
		t.Errorf("hook saw wrong classification: %+v", seen)
	}
}
