package metrics

import (
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestRuntimeMetricsDisabledByDefault(t *testing.T) {
	r := NewRegistry()
	if _, ok := r.Snapshot().Gauges["runtime.goroutines"]; ok {
		t.Fatal("runtime metrics present without EnableRuntimeMetrics")
	}
}

func TestRuntimeMetrics(t *testing.T) {
	r := NewRegistry()
	r.EnableRuntimeMetrics()
	r.EnableRuntimeMetrics() // idempotent

	runtime.GC()
	runtime.GC()
	snap := r.Snapshot()

	if g := snap.Gauges["runtime.goroutines"]; g.Value < 1 {
		t.Fatalf("runtime.goroutines = %d, want >= 1", g.Value)
	}
	if g := snap.Gauges["runtime.heap_bytes"]; g.Value <= 0 {
		t.Fatalf("runtime.heap_bytes = %d, want > 0", g.Value)
	}
	h := snap.Histograms["runtime.gc_pause_hist"]
	if h.Count < 2 {
		t.Fatalf("gc_pause_hist count = %d, want >= 2 after two forced GCs", h.Count)
	}

	// A second snapshot must not re-observe the same pauses.
	before := h.Count
	after := r.Snapshot().Histograms["runtime.gc_pause_hist"]
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	// Concurrent GCs can legitimately add pauses between snapshots; what is
	// forbidden is double counting: total observed never exceeds NumGC.
	if after.Count < before || after.Count > int64(ms.NumGC) {
		t.Fatalf("gc_pause_hist count went %d -> %d with NumGC=%d", before, after.Count, ms.NumGC)
	}

	out := r.Prometheus()
	for _, want := range []string{"\nscuba_runtime_goroutines ", "\nscuba_runtime_heap_bytes ", "# TYPE scuba_runtime_gc_pause_hist_seconds histogram"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in rendering:\n%s", want, out)
		}
	}
}

// Every completed GC cycle lands in gc_pause_hist once, read from
// runtime/metrics between two snapshots (no stop-the-world sampler).
func TestGCPauseHistCountsEveryCycle(t *testing.T) {
	r := NewRegistry()
	r.EnableRuntimeMetrics()
	before := r.Snapshot().Histograms["runtime.gc_pause_hist"].Count
	for range 3 {
		runtime.GC()
	}
	after := r.Snapshot().Histograms["runtime.gc_pause_hist"]
	if after.Count-before < 3 {
		t.Fatalf("gc_pause_hist count %d -> %d across three forced GCs, want +3 or more", before, after.Count)
	}
	if !after.IsDuration {
		t.Fatal("gc_pause_hist lost its duration unit")
	}
}

// A hook runs before every snapshot reads its values, and a second hook under
// the same name is ignored.
func TestOnSnapshotHook(t *testing.T) {
	r := NewRegistry()
	calls := 0
	r.OnSnapshot("x", func() { calls++; r.Gauge("x").Set(int64(calls)) })
	r.OnSnapshot("x", func() { t.Fatal("second hook under one name ran") })
	r.Snapshot()
	if g := r.Snapshot().Gauges["x"]; g.Value != 2 || calls != 2 {
		t.Fatalf("gauge x = %d after %d calls, want 2 and 2", g.Value, calls)
	}
}

// Snapshots taken at once share the runtime hook's cursor: no cycle is
// folded in twice, or missed, while GCs run beside them.
func TestRuntimeSnapshotsConcurrently(t *testing.T) {
	r := NewRegistry()
	r.EnableRuntimeMetrics()
	r.EnableProcessMetrics()
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				r.Snapshot()
				runtime.GC()
			}
		}()
	}
	wg.Wait()
	// Every cycle the process has completed is folded in once: the count lies
	// between NumGC just before the last snapshot and just after it.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := r.Snapshot().Histograms["runtime.gc_pause_hist"].Count
	runtime.ReadMemStats(&after)
	if got < int64(before.NumGC) || got > int64(after.NumGC) {
		t.Fatalf("gc_pause_hist count = %d, NumGC %d before the snapshot and %d after", got, before.NumGC, after.NumGC)
	}
}
