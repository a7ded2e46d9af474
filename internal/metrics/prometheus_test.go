package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPrometheusCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	r.Counter("rows.added").Add(42)
	r.Gauge("free").Set(1000)
	r.Gauge("delta").Add(-3)

	out := r.Prometheus()
	for _, want := range []string{
		"# TYPE scuba_rows_added counter\nscuba_rows_added 42\n",
		"# TYPE scuba_free gauge\nscuba_free 1000\n",
		"# TYPE scuba_delta gauge\nscuba_delta -3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// A timer renders as a histogram in seconds, never as a summary: its
// nanosecond buckets become float le bounds.
func TestPrometheusTimerHistogram(t *testing.T) {
	r := NewRegistry()
	r.Timer("restart.copy_in").Observe(250 * time.Millisecond) // 2.5e8 ns → le=2^28-1 ns
	r.Timer("restart.copy_in").Observe(750 * time.Millisecond) // 7.5e8 ns → le=2^30-1 ns

	out := r.Prometheus()
	for _, want := range []string{
		"# TYPE scuba_restart_copy_in_seconds histogram\n",
		`scuba_restart_copy_in_seconds_bucket{le="0.268435455"} 1`,
		`scuba_restart_copy_in_seconds_bucket{le="1.073741823"} 2`,
		`scuba_restart_copy_in_seconds_bucket{le="+Inf"} 2`,
		"scuba_restart_copy_in_seconds_count 2\n",
		"scuba_restart_copy_in_seconds_sum 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, " summary\n") {
		t.Errorf("a timer rendered as a summary:\n%s", out)
	}
}

func TestPrometheusHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("query.fanout")
	h.Observe(1) // bucket le=1
	h.Observe(3) // bucket le=3
	h.Observe(3)
	h.Observe(100) // bucket le=127

	out := r.Prometheus()
	for _, want := range []string{
		"# TYPE scuba_query_fanout histogram\n",
		`scuba_query_fanout_bucket{le="1"} 1`,
		`scuba_query_fanout_bucket{le="3"} 3`, // cumulative: 1 + 2
		`scuba_query_fanout_bucket{le="127"} 4`,
		`scuba_query_fanout_bucket{le="+Inf"} 4`,
		"scuba_query_fanout_sum 107",
		"scuba_query_fanout_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestPrometheusDurationHistogramSeconds(t *testing.T) {
	r := NewRegistry()
	tm := r.Timer("query.latency")
	tm.Observe(100 * time.Microsecond) // 100,000 ns → bucket le=131,071 ns
	tm.Observe(2 * time.Millisecond)   // 2,000,000 ns → bucket le=2,097,151 ns

	out := r.Prometheus()
	for _, want := range []string{
		"# TYPE scuba_query_latency_seconds histogram\n",
		`scuba_query_latency_seconds_bucket{le="0.000131071"} 1`,
		`scuba_query_latency_seconds_bucket{le="0.002097151"} 2`,
		`scuba_query_latency_seconds_bucket{le="+Inf"} 2`,
		"scuba_query_latency_seconds_sum 0.0021\n",
		"scuba_query_latency_seconds_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestPrometheusDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(1)
	r.Counter("a").Add(2)
	r.Gauge("z").Set(3)
	r.Histogram("h").Observe(5)
	if r.Prometheus() != r.Prometheus() {
		t.Fatal("exposition not byte-stable across identical snapshots")
	}
	if !strings.HasPrefix(r.Prometheus(), "# TYPE scuba_a counter") {
		t.Errorf("families not sorted:\n%s", r.Prometheus())
	}
}

// TestPrometheusRaces renders the exposition while writers are observing
// into every metric type; run under -race this pins snapshot-vs-observe
// safety for the new rendering path too.
func TestPrometheusRaces(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.Counter("c").Add(1)
				r.Gauge("g").Set(1)
				r.Timer("t").Observe(time.Microsecond)
				r.Histogram("h").Observe(1)
			}
		}()
	}
	for i := 0; i < 50; i++ {
		if out := r.Prometheus(); !strings.Contains(out, "scuba_c") {
			t.Errorf("missing counter in exposition")
			break
		}
	}
	close(stop)
	wg.Wait()
}
