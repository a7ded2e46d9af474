package metrics

import (
	"math"
	rtmetrics "runtime/metrics"
	"sync"
	"time"
)

// EnableRuntimeMetrics turns on Go runtime self-metrics: every Snapshot
// (and therefore every /metrics scrape and __system.metrics batch) first
// samples the runtime into
//
//	runtime.goroutines     gauge, current goroutine count
//	runtime.heap_bytes     gauge, heap held by objects (MemStats.HeapAlloc)
//	runtime.gc_pause_hist  histogram of GC stop-the-world pauses, one per
//	                       completed cycle
//
// The sample is read from runtime/metrics, which does not stop the world as
// reading the runtime's MemStats does. Sampling on snapshot rather than on a
// timer means an idle daemon costs nothing and a scraped one is always
// current. Idempotent.
func (r *Registry) EnableRuntimeMetrics() {
	samples := []rtmetrics.Sample{
		{Name: "/sched/goroutines:goroutines"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	var mu sync.Mutex // guards the sample buffers and the cursor below
	var cycles uint64 // completed GC cycles already folded into the histogram
	var seen []uint64 // and their pauses, per runtime bucket
	r.OnSnapshot("runtime", func() {
		mu.Lock()
		defer mu.Unlock()
		rtmetrics.Read(samples)
		r.Gauge("runtime.goroutines").Set(int64(samples[0].Value.Uint64()))
		r.Gauge("runtime.heap_bytes").Set(int64(samples[1].Value.Uint64()))
		pauses := samples[3].Value.Float64Histogram()
		if seen == nil {
			seen = make([]uint64, len(pauses.Counts))
		}
		var fresh uint64
		for i, c := range pauses.Counts {
			fresh += c - seen[i]
		}
		n := samples[2].Value.Uint64() - cycles
		if n == 0 || fresh == 0 {
			return // no cycle has finished since the last sample
		}
		// A cycle stops the world twice; the histogram keeps one pause per
		// cycle, as MemStats.PauseNs did: the fresh pauses are walked in
		// ascending order and the last of every fresh/n of them observed, so
		// the count is the cycles and the longest pause always lands.
		h := r.Histogram("runtime.gc_pause_hist")
		var rank uint64
		k := uint64(1)
		for i, c := range pauses.Counts {
			rank += c - seen[i]
			seen[i] = c
			for ; k <= n && k*fresh <= rank*n; k++ {
				v := pauses.Buckets[i+1]
				if math.IsInf(v, 1) {
					v = pauses.Buckets[i]
				}
				h.ObserveDuration(time.Duration(v * float64(time.Second)))
			}
		}
		cycles += n
	})
}
