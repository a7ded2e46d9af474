package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for _, v := range []int64{1, 2, 3, 4, 100, -5} {
		h.Observe(v)
	}
	st := h.Stats()
	if st.Count != 6 {
		t.Errorf("count = %d", st.Count)
	}
	if st.Min != 0 || st.Max != 100 { // -5 clamps to 0
		t.Errorf("min/max = %d/%d", st.Min, st.Max)
	}
	if st.Sum != 110 {
		t.Errorf("sum = %d", st.Sum)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 100 samples in [1, 100]: p50 should land near 64's bucket [32,63],
	// p99 near 100. Power-of-two buckets give ~2x resolution, so assert
	// ranges rather than exact values.
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	st := h.Stats()
	if st.P50 < 32 || st.P50 > 64 {
		t.Errorf("p50 = %d, want within [32,64]", st.P50)
	}
	if st.P95 < 64 || st.P95 > 100 {
		t.Errorf("p95 = %d, want within [64,100]", st.P95)
	}
	if st.P99 < 64 || st.P99 > 100 {
		t.Errorf("p99 = %d, want within [64,100]", st.P99)
	}
	// Quantiles are clamped to observed extremes.
	for _, q := range []int64{st.P50, st.P95, st.P99} {
		if q < st.Min || q > st.Max {
			t.Errorf("quantile %d outside [%d, %d]", q, st.Min, st.Max)
		}
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	st := h.Stats()
	if st.Count != 0 || st.P50 != 0 || st.P99 != 0 || st.Sum != 0 {
		t.Errorf("empty stats = %+v", st)
	}
}

// A duration histogram is a Timer, and a Timer holds nanoseconds: two
// 1,500 ns samples total 3,000 ns exactly (in whole µs they would be 2,000).
func TestHistogramDuration(t *testing.T) {
	var tm Timer
	tm.Observe(1500 * time.Nanosecond)
	tm.Observe(1500 * time.Nanosecond)
	st := tm.Stats()
	if st.Count != 2 || st.Total != 3000*time.Nanosecond {
		t.Errorf("stats = %+v, want count 2, total 3µs", st)
	}
	if st.Min != 1500 || st.Max != 1500 || st.P50 != 1500 || st.P99 != 1500 {
		t.Errorf("min/max/p50/p99 = %v/%v/%v/%v, want 1.5µs", st.Min, st.Max, st.P50, st.P99)
	}
	tm.Time(func() {})
	if st := tm.Stats(); st.Count != 3 || st.Total < 3000 {
		t.Errorf("after Time: %+v", st)
	}
}

func TestHistogramSingleSample(t *testing.T) {
	var h Histogram
	h.Observe(1000)
	st := h.Stats()
	// With one sample every quantile is that sample (midpoint clamps to
	// the observed min == max).
	if st.P50 != 1000 || st.P95 != 1000 || st.P99 != 1000 {
		t.Errorf("quantiles = %d/%d/%d, want 1000", st.P50, st.P95, st.P99)
	}
}

// TestObserveVsSnapshotRace drives concurrent Timer.Observe and
// Histogram.Observe against Snapshot readers; the race detector checks the
// locking, and the final counts check no observation is lost.
func TestObserveVsSnapshotRace(t *testing.T) {
	r := NewRegistry()
	const writers, perWriter = 8, 500
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() { // snapshot reader competing with every writer
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Prometheus()
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				r.Timer("restart.copy_out").Observe(time.Duration(j) * time.Microsecond)
				r.Histogram("query.fanout").Observe(int64(i*perWriter + j))
				r.Histogram("query.fanout").Stats()
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()

	snap := r.Snapshot()
	if got := snap.Timers["restart.copy_out"].Count; got != writers*perWriter {
		t.Errorf("timer count = %d, want %d", got, writers*perWriter)
	}
	if got := snap.Histograms["query.fanout"].Count; got != writers*perWriter {
		t.Errorf("histogram count = %d, want %d", got, writers*perWriter)
	}
}
