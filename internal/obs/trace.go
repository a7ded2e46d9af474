package obs

// Distributed per-query tracing, Dapper-style: the aggregator that receives
// a query stamps it with a trace ID and one span ID per leaf RPC; the wire
// protocol carries the context in the request envelope, each leaf answers
// with an ExecStats block, and the aggregator assembles a root span and one
// span per leaf (span.go) into a Trace. The tracer keeps none of it: a
// finished trace goes to the observer's span hooks, and the sink's hook makes
// it rows of __system.traces — the one place a query's spans are kept, read
// back by scuba-cli trace with an ordinary group-by.

import (
	"math/rand"
	"sync"
	"time"

	"scuba/internal/metrics"
)

// TraceContext is the trace identity carried in every traced request
// envelope. The zero value means "untraced" — leaves skip ExecStats
// collection entirely — and gob omits zero fields, so untraced and pre-trace
// peers pay nothing.
type TraceContext struct {
	// TraceID identifies the whole query across every leaf it touches.
	TraceID uint64
	// SpanID identifies one leaf's share of the query. It is stamped once by
	// the aggregator before the first attempt, so wire-client retries reuse
	// it and the assembled trace can deduplicate retried RPCs.
	SpanID uint64
}

// ExecStats is one leaf's structured execution report, returned in the query
// response next to the result. All durations are nanoseconds.
type ExecStats struct {
	// SpanID echoes the request's span, tying the report to its trace slot.
	SpanID uint64 `json:"span_id"`
	// Table is the queried table.
	Table string `json:"table"`
	// Recovery says where this table's data came from on the leaf's last
	// start: "memory" (shared memory), "disk", "quarantined" (shm segment
	// rejected, re-read from disk), "mixed", or "none" (fresh ingest).
	Recovery string `json:"recovery"`
	// LatencyNanos is the leaf-side execution wall time.
	LatencyNanos int64 `json:"latency_nanos"`
	// Per-phase breakdown (cumulative across blocks and scan workers).
	DecodeNanos int64 `json:"decode_nanos"`
	PruneNanos  int64 `json:"prune_nanos"`
	ScanNanos   int64 `json:"scan_nanos"`
	MergeNanos  int64 `json:"merge_nanos"`
	// Work accounting.
	RowsScanned   int64 `json:"rows_scanned"`
	BlocksScanned int64 `json:"blocks_scanned"`
	BlocksPruned  int64 `json:"blocks_pruned"`
	BlocksSkipped int64 `json:"blocks_skipped"`
	CacheHits     int64 `json:"cache_hits"`
	CacheMisses   int64 `json:"cache_misses"`
	// ShardsServed counts how many shards of the table this leaf answered
	// for (0 on unsharded deployments, where the leaf serves the whole
	// table). Additive: pre-shard peers decode it as zero.
	ShardsServed int `json:"shards_served,omitempty"`
}

// DominantPhase names the largest phase of the breakdown and its share of
// the summed phase time ("" and 0 when nothing was recorded).
func (e *ExecStats) DominantPhase() (name string, v int64) {
	for _, p := range []struct {
		name string
		v    int64
	}{{"decode", e.DecodeNanos}, {"prune", e.PruneNanos}, {"scan", e.ScanNanos}, {"merge", e.MergeNanos}} {
		if p.v > v {
			name, v = p.name, p.v
		}
	}
	return name, v
}

// TracerOptions configure a tracer.
type TracerOptions struct {
	// SlowThreshold marks queries at or above this duration as slow. Zero
	// selects adaptive tail sampling: once adaptiveMinSamples latencies have
	// been observed, anything above the running p99 is slow — "the slowest
	// ~1% of whatever the workload currently is" without hand-tuning.
	SlowThreshold time.Duration
}

// adaptiveMinSamples is how many latencies adaptive sampling needs before it
// starts flagging.
const adaptiveMinSamples = 32

// idRand feeds the trace/span ID generators. math/rand suffices: IDs only
// need to be unique among the traces __system.traces holds, not secret.
var idRand = struct {
	sync.Mutex
	*rand.Rand
}{Rand: rand.New(rand.NewSource(time.Now().UnixNano()))}

// RandomID returns a fresh nonzero 64-bit ID for traces and spans.
func RandomID() uint64 {
	idRand.Lock()
	defer idRand.Unlock()
	for {
		if id := idRand.Uint64(); id != 0 {
			return id
		}
	}
}

// Tracer files finished query traces on behalf of one aggregator. All
// methods are safe for concurrent use; a nil *Tracer is a valid no-op for
// the ID generators, so callers can stamp unconditionally.
type Tracer struct {
	o    *Observer // nil: traces are classified and counted, and go nowhere
	opts TracerOptions

	mu  sync.Mutex
	lat *metrics.Timer // latency distribution for adaptive sampling

	traceCount *metrics.Counter
	slowCount  *metrics.Counter
}

// Tracer creates a tracer whose finished traces feed the observer's span
// hooks and whose trace.count / trace.slow counters live in its registry.
// The zero options give adaptive (p99) slow sampling. Works on a nil
// Observer: traces are still classified and counted.
func (o *Observer) Tracer(opts TracerOptions) *Tracer {
	t := &Tracer{o: o, opts: opts, lat: &metrics.Timer{}, traceCount: &metrics.Counter{}, slowCount: &metrics.Counter{}}
	if reg := o.Registry(); reg != nil {
		t.traceCount, t.slowCount = reg.Counter("trace.count"), reg.Counter("trace.slow")
	}
	return t
}

// newTraceID mints a nonzero trace ID of 63 bits: it is an int64 column of
// __system.traces and __system.profiles, and must read back as itself.
func newTraceID() uint64 { return RandomID()>>1 | 1 }

// NewTraceID returns a fresh nonzero trace ID — 0 on a nil tracer, which
// callers read as "this query is untraced".
func (t *Tracer) NewTraceID() uint64 {
	if t == nil {
		return 0
	}
	return newTraceID()
}

// Record files a completed query trace, root span first: the spans after it
// are deduplicated by span ID (a retried RPC must not produce duplicate leaf
// spans — the attempt that answered wins), the root is classified slow or
// not, and the trace is handed to the observer's span hooks. It reports
// whether the root was classified slow.
func (t *Tracer) Record(tr Trace) bool {
	if t == nil || len(tr) == 0 {
		return false
	}
	tr = dedupeSpans(tr)
	root := &tr[0]
	t.mu.Lock()
	root.Slow = t.isSlowLocked(root.Duration)
	t.lat.Observe(root.Duration)
	if root.Slow {
		t.slowCount.Add(1)
	}
	t.traceCount.Add(1)
	t.mu.Unlock()
	t.o.spansFinished(tr)
	return root.Slow
}

// isSlowLocked applies the fixed threshold, or the adaptive p99 rule once
// enough samples exist. The current query's latency is judged against the
// distribution *before* it is folded in.
func (t *Tracer) isSlowLocked(d time.Duration) bool {
	if th := t.opts.SlowThreshold; th > 0 {
		return d >= th
	}
	st := t.lat.Stats()
	if st.Count < adaptiveMinSamples {
		return false
	}
	// Strictly above p99: in a tight uniform workload the typical latency
	// IS the p99 estimate, and nothing should be flagged until a real
	// outlier shows up.
	return d > st.P99
}

// dedupeSpans keeps one span per span ID, preferring the one that answered
// (and among answered duplicates, the first — the attempt whose response the
// client returned). Spans without IDs (untraced targets) pass through.
func dedupeSpans(spans Trace) Trace {
	seen := make(map[uint64]int, len(spans))
	out := spans[:0]
	for _, sp := range spans {
		if sp.SpanID == 0 {
			out = append(out, sp)
			continue
		}
		if j, ok := seen[sp.SpanID]; ok {
			if out[j].Err != "" && sp.Err == "" {
				out[j] = sp
			}
			continue
		}
		seen[sp.SpanID] = len(out)
		out = append(out, sp)
	}
	return out
}
