package metrics

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestPrometheusEmptyRegistry pins the degenerate exposition: no families,
// but still a well-formed OpenMetrics document (just the EOF marker).
func TestPrometheusEmptyRegistry(t *testing.T) {
	r := NewRegistry()
	got := r.Prometheus()
	if got != "# EOF\n" {
		t.Fatalf("empty registry exposition = %q, want %q", got, "# EOF\n")
	}
	// An empty *snapshot* (no registry at all) renders the same.
	if got := (Snapshot{}).Prometheus(); got != "# EOF\n" {
		t.Fatalf("empty snapshot exposition = %q", got)
	}
}

// TestPrometheusScrapeObserveRace hammers every metric type while scraping;
// run under -race this pins that a scrape never tears an observation.
func TestPrometheusScrapeObserveRace(t *testing.T) {
	r := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Counter("race.counter").Add(1)
				r.Gauge("race.gauge").Set(int64(i))
				r.Timer("race.timer").Observe(time.Duration(i) * time.Microsecond)
				r.Histogram("race.hist").Observe(int64(i % 1000))
			}
		}()
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		out := r.Prometheus()
		if !strings.HasSuffix(out, "# EOF\n") {
			t.Fatalf("scrape not terminated:\n%s", out)
		}
	}
	close(stop)
	wg.Wait()
}

// TestPrometheusBucketMonotonicity checks the histogram invariants every
// scraper assumes: cumulative bucket counts never decrease with le, the
// +Inf bucket equals _count, and le bounds strictly increase.
func TestPrometheusBucketMonotonicity(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("mono.hist")
	for _, v := range []int64{0, 1, 1, 3, 7, 8, 100, 5000, 1 << 40} {
		h.Observe(v)
	}
	st := h.Stats()
	lastLe := int64(-1)
	for _, bk := range st.Buckets {
		if bk.Le <= lastLe {
			t.Fatalf("le bounds not increasing: %d after %d", bk.Le, lastLe)
		}
		lastLe = bk.Le
		if bk.Count <= 0 {
			t.Fatalf("empty bucket emitted: %+v", bk)
		}
	}

	out := r.Prometheus()
	var lastCum int64 = -1
	var buckets, infCum int64
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "scuba_mono_hist_bucket{") {
			continue
		}
		val, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		if val < lastCum {
			t.Fatalf("cumulative count decreased: %q after %d", line, lastCum)
		}
		lastCum = val
		buckets++
		if strings.Contains(line, `le="+Inf"`) {
			infCum = val
		}
	}
	if buckets < 2 {
		t.Fatalf("expected multiple bucket lines:\n%s", out)
	}
	if infCum != st.Count {
		t.Fatalf("+Inf bucket %d != count %d", infCum, st.Count)
	}
}
