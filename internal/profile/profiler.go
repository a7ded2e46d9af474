package profile

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"time"

	"scuba/internal/metrics"
	"scuba/internal/obs"
	"scuba/internal/rowblock"
)

// Defaults for Config zero values.
const (
	DefaultInterval = 60 * time.Second
	DefaultWindow   = 5 * time.Second
)

// The anomaly policy.
const (
	anomalyWindow   = 1 * time.Second       // CPU window: attribution while the cause is hot
	anomalyCooldown = 15 * time.Second      // least gap between anomaly captures; the first always runs
	gcPauseBudget   = 50 * time.Millisecond // a gc_pause p99 above it, with new GCs, is an anomaly
	topN            = 20                    // rows: top N functions by CPU ∪ top N by alloc delta
)

// Capture triggers, written into the __system.profiles "trigger" column.
const (
	TriggerInterval  = "interval"   // steady-cadence capture
	TriggerSlowQuery = "slow_query" // a slow trace hit the tracer ring
	TriggerRestart   = "restart"    // a restart phase blew its budget
	TriggerGCPause   = "gc_pause"   // runtime.gc_pause p99 over budget
)

// Config configures a Profiler.
type Config struct {
	// Sink receives the folded profile rows (table __system.profiles).
	// Required.
	Sink *obs.Sink
	// Source labels every row (the daemon's identity, same convention as
	// the sink's own Source).
	Source string
	// Registry, when non-nil, receives the profiler's self-counters and is
	// watched for GC-pause p99 spikes.
	Registry *metrics.Registry
	// Interval is the steady capture cadence (default 60s; negative
	// disables steady captures — anomaly triggers still work).
	Interval time.Duration
	// Window is the CPU-profile window of a steady capture (default 5s,
	// clamped to Interval/2 so back-to-back captures cannot overlap).
	Window time.Duration
	// Clock overrides time.Now for tests. Only stamps rows and cooldowns;
	// capture windows always run on real timers.
	Clock func() time.Time
}

// capReq is one queued capture request.
type capReq struct {
	reason  string
	detail  string
	traceID uint64
	done    chan struct{} // non-nil for synchronous CaptureNow
}

// Profiler owns one capture goroutine per daemon. All captures — steady and
// anomaly — run on that single goroutine because runtime/pprof allows only
// one CPU profile at a time process-wide.
type Profiler struct {
	cfg           Config
	reqs          chan capReq
	done          chan struct{}
	anomalyWindow time.Duration // the constant clamped like Window; tests shorten it
	wg            sync.WaitGroup
	once          sync.Once

	captures  *metrics.Counter
	anomalies *metrics.Counter
	dropped   *metrics.Counter
	errors    *metrics.Counter

	mu          sync.Mutex
	lastAnomaly time.Time
	prevAlloc   map[string]int64 // alloc_space flat at the previous capture
	lastGCCount int64
}

// New creates and starts a profiler. Panics if cfg.Sink is nil.
func New(cfg Config) *Profiler {
	if cfg.Sink == nil {
		panic("profile: Config.Sink is required")
	}
	if cfg.Interval == 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	cfg.Window = clampWindow(cfg.Window, cfg.Interval)
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	p := &Profiler{
		cfg:           cfg,
		reqs:          make(chan capReq, 8),
		done:          make(chan struct{}),
		anomalyWindow: clampWindow(anomalyWindow, cfg.Interval),
		prevAlloc:     make(map[string]int64),
	}
	if reg := cfg.Registry; reg != nil {
		p.captures = reg.Counter("profile.captures")
		p.anomalies = reg.Counter("profile.anomalies")
		p.dropped = reg.Counter("profile.dropped")
		p.errors = reg.Counter("profile.errors")
	}
	p.wg.Add(1)
	go p.loop()
	return p
}

// clampWindow keeps a capture window within half the steady interval, so
// back-to-back captures cannot overlap, and at least 10ms.
func clampWindow(w, interval time.Duration) time.Duration {
	if interval > 0 {
		w = min(w, interval/2)
	}
	return max(w, 10*time.Millisecond)
}

// Close stops the capture goroutine. A window in flight is cut short, its
// rows still emitted. Idempotent.
func (p *Profiler) Close() {
	if p == nil {
		return
	}
	p.once.Do(func() { close(p.done) })
	p.wg.Wait()
}

// OnSpans is the observer's finished-span hook (obs.Observer.OnSpans): a span
// its producer marked Slow triggers an anomaly capture tagged with its trace
// ID, so the functions that were hot join the waterfall that shows where the
// time went — a query's root over the tracer's slow threshold, a restart step
// over the observer's budget. Queries of __system tables are ignored:
// profiling the profile queries would feed back into itself. Safe on nil.
func (p *Profiler) OnSpans(spans obs.Trace) {
	for _, sp := range spans {
		switch {
		case !sp.Slow: // most spans
		case sp.Kind == obs.KindRestart:
			detail := "phase=" + sp.Phase + " took=" + sp.Duration.String()
			if sp.Table != "" {
				detail += " table=" + sp.Table
			}
			if sp.Recovery != "" {
				detail += " source=" + sp.Recovery
			}
			p.TriggerCapture(TriggerRestart, detail, sp.TraceID)
		case sp.Kind == obs.KindQuery && !obs.IsSystemTable(sp.Table):
			p.TriggerCapture(TriggerSlowQuery, sp.Query[:min(len(sp.Query), 256)], sp.TraceID)
		}
	}
}

// TriggerCapture requests an anomaly capture. It never blocks: within the
// cooldown or with the queue full the request is dropped (and counted).
// Reports whether the request was queued.
func (p *Profiler) TriggerCapture(reason, detail string, traceID uint64) bool {
	if p == nil {
		return false
	}
	now := p.cfg.Clock()
	p.mu.Lock()
	if !p.lastAnomaly.IsZero() && now.Sub(p.lastAnomaly) < anomalyCooldown {
		p.mu.Unlock()
		p.count(p.dropped)
		return false
	}
	p.lastAnomaly = now
	p.mu.Unlock()
	select {
	case p.reqs <- capReq{reason: reason, detail: detail, traceID: traceID}:
		return true
	default:
		p.count(p.dropped)
		return false
	}
}

// CaptureNow runs one capture synchronously (bypassing the anomaly cooldown)
// and reports whether it completed. It still serializes through the capture
// goroutine — CPU profiling is process-exclusive.
func (p *Profiler) CaptureNow(reason, detail string, traceID uint64) bool {
	if p == nil {
		return false
	}
	req := capReq{reason: reason, detail: detail, traceID: traceID, done: make(chan struct{})}
	select {
	case p.reqs <- req:
	case <-p.done:
		return false
	}
	select {
	case <-req.done:
		return true
	case <-p.done:
		return false
	}
}

func (p *Profiler) count(c *metrics.Counter) {
	if c != nil {
		c.Add(1)
	}
}

func (p *Profiler) loop() {
	defer p.wg.Done()
	var steadyC, gcC <-chan time.Time
	if p.cfg.Interval > 0 {
		steady := time.NewTicker(p.cfg.Interval)
		defer steady.Stop()
		steadyC = steady.C
		if p.cfg.Registry != nil {
			// GC spikes should trigger well inside the steady cadence:
			// check every 5s (or faster when the interval itself is fast).
			every := 5 * time.Second
			if p.cfg.Interval < every {
				every = p.cfg.Interval
			}
			gc := time.NewTicker(every)
			defer gc.Stop()
			gcC = gc.C
		}
	}
	for {
		select {
		case <-p.done:
			return
		case <-gcC:
			p.checkGCPause()
		case <-steadyC:
			p.capture(capReq{reason: TriggerInterval}, p.cfg.Window)
		case req := <-p.reqs:
			p.capture(req, p.anomalyWindow)
		}
	}
}

// checkGCPause triggers a capture when the GC-pause p99 exceeds the budget
// and GCs actually happened since the last check (all-time p99 staying high
// must not re-trigger forever — the cooldown and the count gate share that
// job).
func (p *Profiler) checkGCPause() {
	reg := p.cfg.Registry
	if reg == nil {
		return
	}
	// Snapshot refreshes the runtime sampler (that is where gc_pause gets
	// its data between scrapes).
	st, ok := reg.Snapshot().Timers["runtime.gc_pause"]
	if !ok || st.Count == 0 {
		return
	}
	p.mu.Lock()
	grew := st.Count > p.lastGCCount
	p.lastGCCount = st.Count
	p.mu.Unlock()
	if !grew || st.P99 <= gcPauseBudget {
		return
	}
	detail := "gc_pause_p99=" + st.P99.String() + " budget=" + gcPauseBudget.String()
	p.TriggerCapture(TriggerGCPause, detail, 0)
}

// capture runs one CPU window + heap snapshot and emits the folded rows.
func (p *Profiler) capture(req capReq, window time.Duration) {
	if req.done != nil {
		defer close(req.done)
	}
	var cpu *Profile
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		// Another CPU profile is running (e.g. a manual /debug/pprof/profile
		// pull). Skip the CPU half; heap attribution still goes out.
		p.count(p.errors)
	} else {
		t := time.NewTimer(window)
		select {
		case <-t.C:
		case <-p.done:
			t.Stop()
		}
		pprof.StopCPUProfile()
		c, err := Decode(buf.Bytes())
		if err != nil {
			p.count(p.errors)
		} else {
			cpu = c
		}
	}
	var heap *Profile
	if lp := pprof.Lookup("heap"); lp != nil {
		var hb bytes.Buffer
		if err := lp.WriteTo(&hb, 0); err == nil {
			if h, err := Decode(hb.Bytes()); err == nil {
				heap = h
			} else {
				p.count(p.errors)
			}
		}
	}
	rows := p.buildRows(req, window, cpu, heap)
	p.cfg.Sink.RecordRows(obs.SystemProfilesTable, rows)
	p.count(p.captures)
	if req.reason != TriggerInterval {
		p.count(p.anomalies)
	}
}

// funcAgg is the merged per-function view of one capture.
type funcAgg struct {
	flat, cum  int64 // CPU nanos in the window
	allocDelta int64 // sampled alloc_space bytes since the previous capture
	inuse      int64 // sampled inuse_space bytes now
}

// buildRows folds the CPU and heap profiles into the top-N per-function
// rows plus one "(total)" row carrying the capture-wide sums.
func (p *Profiler) buildRows(req capReq, window time.Duration, cpu, heap *Profile) []rowblock.Row {
	agg := make(map[string]*funcAgg)
	get := func(fn string) *funcAgg {
		a := agg[fn]
		if a == nil {
			a = &funcAgg{}
			agg[fn] = a
		}
		return a
	}
	var cpuTotal int64
	if cpu != nil {
		vals, total := cpu.Fold(cpu.ValueIndex("cpu"))
		cpuTotal = total
		for fn, fv := range vals {
			a := get(fn)
			a.flat = fv.Flat
			a.cum = fv.Cum
		}
	}
	// Heap: attribute allocation to the allocating (leaf) frame; values are
	// the runtime's sampled bytes, not unsampled estimates. alloc_space is
	// cumulative since process start, so the row carries the delta against
	// the previous capture — "what allocated during this window".
	var allocTotal, inuseTotal int64
	curAlloc := make(map[string]int64)
	if heap != nil {
		av, _ := heap.Fold(heap.ValueIndex("alloc_space"))
		iv, _ := heap.Fold(heap.ValueIndex("inuse_space"))
		p.mu.Lock()
		for fn, fv := range av {
			curAlloc[fn] = fv.Flat
			d := fv.Flat - p.prevAlloc[fn]
			if d < 0 {
				d = 0
			}
			if d > 0 {
				get(fn).allocDelta = d
				allocTotal += d
			}
		}
		p.prevAlloc = curAlloc
		p.mu.Unlock()
		for fn, fv := range iv {
			if fv.Flat > 0 {
				get(fn).inuse = fv.Flat
				inuseTotal += fv.Flat
			}
		}
	}

	names := make([]string, 0, len(agg))
	for fn := range agg {
		names = append(names, fn)
	}
	keep := make(map[string]bool)
	sort.Slice(names, func(i, j int) bool { return agg[names[i]].flat > agg[names[j]].flat })
	for i := 0; i < len(names) && i < topN; i++ {
		if agg[names[i]].flat > 0 {
			keep[names[i]] = true
		}
	}
	sort.Slice(names, func(i, j int) bool { return agg[names[i]].allocDelta > agg[names[j]].allocDelta })
	for i := 0; i < len(names) && i < topN; i++ {
		if agg[names[i]].allocDelta > 0 {
			keep[names[i]] = true
		}
	}

	end := p.cfg.Clock()
	captureID := strconv.FormatInt(end.UnixMicro(), 10)
	goroutines := int64(runtime.NumGoroutine())
	row := func(fn string, a funcAgg) rowblock.Row {
		return rowblock.Row{
			Time: end.Unix(),
			Cols: map[string]rowblock.Value{
				"source":      rowblock.StringValue(p.cfg.Source),
				"capture":     rowblock.StringValue(captureID),
				"t_us":        rowblock.Int64Value(end.UnixMicro()),
				"trigger":     rowblock.StringValue(req.reason),
				"trace_id":    rowblock.Int64Value(int64(req.traceID)),
				"detail":      rowblock.StringValue(req.detail),
				"function":    rowblock.StringValue(fn),
				"flat_ns":     rowblock.Int64Value(a.flat),
				"cum_ns":      rowblock.Int64Value(a.cum),
				"alloc_bytes": rowblock.Int64Value(a.allocDelta),
				"inuse_bytes": rowblock.Int64Value(a.inuse),
				"goroutines":  rowblock.Int64Value(goroutines),
				"window_ms":   rowblock.Int64Value(window.Milliseconds()),
			},
		}
	}
	// The total row goes first and always exists — an idle window with no
	// CPU samples still marks "a capture happened here", which the CI smoke
	// and the CLI's percent column both depend on.
	rows := []rowblock.Row{row(TotalFunction, funcAgg{
		flat: cpuTotal, cum: cpuTotal, allocDelta: allocTotal, inuse: inuseTotal,
	})}
	sorted := make([]string, 0, len(keep))
	for fn := range keep {
		sorted = append(sorted, fn)
	}
	sort.Slice(sorted, func(i, j int) bool { return agg[sorted[i]].flat > agg[sorted[j]].flat })
	for _, fn := range sorted {
		rows = append(rows, row(fn, *agg[fn]))
	}
	return rows
}

// TotalFunction is the synthetic function name of the capture-wide totals
// row present in every capture.
const TotalFunction = "(total)"
