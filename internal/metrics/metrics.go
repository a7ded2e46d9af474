// Package metrics provides the small counter/gauge/timer/histogram registry
// used by the daemons, the rollover driver and the benchmark harness. It is
// not a general metrics system — just enough to print the dashboards and
// tables the experiments need, and to back the /metrics HTTP exposition of
// every daemon, with no dependencies.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing value.
type Counter struct{ v atomic.Int64 }

// Add increments the counter.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reads the counter.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable value.
type Gauge struct {
	v atomic.Int64
	// duration marks gauges set via SetDuration so snapshots and text
	// output can render the microsecond value with a unit instead of as a
	// bare count.
	duration atomic.Bool
}

// Set stores the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// SetDuration stores a duration in whole microseconds and marks the gauge as
// one, so every rendering carries the unit: sub-millisecond durations are
// common at test scale and would all round to zero in milliseconds.
func (g *Gauge) SetDuration(d time.Duration) {
	g.duration.Store(true)
	g.v.Store(d.Microseconds())
}

// Add adjusts the gauge by a delta (useful for high-water tracking under
// concurrent writers combined with Value polling).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Timer accumulates durations.
type Timer struct {
	mu    sync.Mutex
	count int64
	total time.Duration
	min   time.Duration
	max   time.Duration
}

// Observe records one duration.
func (t *Timer) Observe(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.count == 0 || d < t.min {
		t.min = d
	}
	if d > t.max {
		t.max = d
	}
	t.count++
	t.total += d
}

// Time runs fn and records its duration.
func (t *Timer) Time(fn func()) {
	start := time.Now()
	fn()
	t.Observe(time.Since(start))
}

// TimerStats is a timer snapshot.
type TimerStats struct {
	Count          int64
	Total          time.Duration
	Min, Max, Mean time.Duration
}

// Stats snapshots the timer.
func (t *Timer) Stats() TimerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := TimerStats{Count: t.count, Total: t.total, Min: t.min, Max: t.max}
	if t.count > 0 {
		st.Mean = t.total / time.Duration(t.count)
	}
	return st
}

// Registry names a set of metrics.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	timers     map[string]*Timer
	histograms map[string]*Histogram
	// hooks run at the start of every Snapshot (OnSnapshot).
	hooks []hook
	// build is the binary's identity once EnableProcessMetrics has run.
	build *BuildInfo
}

type hook struct {
	name string
	fn   func()
}

// OnSnapshot registers fn to run at the start of every Snapshot — so before
// every /metrics render and every __system.metrics batch — ahead of reading
// any value: the one way a registry samples state it does not own (the Go
// runtime, the process, a leaf's tables). Hooks run outside the registry
// lock, so fn may set any metric; two snapshots at once run fn concurrently,
// so state fn keeps between calls is its own to guard. A name already
// registered keeps its first hook, which makes registering idempotent.
func (r *Registry) OnSnapshot(name string, fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, h := range r.hooks {
		if h.name == name {
			return
		}
	}
	r.hooks = append(r.hooks, hook{name, fn})
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		timers:     make(map[string]*Timer),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns (creating if needed) a named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) a named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Timer returns (creating if needed) a named timer.
func (r *Registry) Timer(name string) *Timer {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timers[name]
	if !ok {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// Histogram returns (creating if needed) a named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// GaugeValue is one gauge's snapshot. Unit is "us" for gauges set via
// SetDuration and "" otherwise.
type GaugeValue struct {
	Value int64
	Unit  string
}

// Snapshot is a point-in-time structured view of every metric in a
// registry, so tests and HTTP handlers consume typed values instead of
// parsing the text rendering.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]GaugeValue
	Timers     map[string]TimerStats
	Histograms map[string]HistogramStats
	// Build is the binary's identity, nil unless EnableProcessMetrics ran.
	Build *BuildInfo
}

// Snapshot captures every metric. Each value is internally consistent; the
// set as a whole is a best-effort snapshot under concurrent writers.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	hooks := r.hooks
	r.mu.Unlock()
	for _, h := range hooks {
		h.fn()
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for name, g := range r.gauges {
		gauges[name] = g
	}
	timers := make(map[string]*Timer, len(r.timers))
	for name, t := range r.timers {
		timers[name] = t
	}
	histograms := make(map[string]*Histogram, len(r.histograms))
	for name, h := range r.histograms {
		histograms[name] = h
	}
	build := r.build
	r.mu.Unlock()

	snap := Snapshot{
		Counters:   make(map[string]int64, len(counters)),
		Gauges:     make(map[string]GaugeValue, len(gauges)),
		Timers:     make(map[string]TimerStats, len(timers)),
		Histograms: make(map[string]HistogramStats, len(histograms)),
		Build:      build,
	}
	for name, c := range counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range gauges {
		gv := GaugeValue{Value: g.Value()}
		if g.duration.Load() {
			gv.Unit = "us"
		}
		snap.Gauges[name] = gv
	}
	for name, t := range timers {
		snap.Timers[name] = t.Stats()
	}
	for name, h := range histograms {
		snap.Histograms[name] = h.Stats()
	}
	return snap
}

// String renders all metrics one per line, each tagged with its type
// (counter|gauge|timer|histogram) and a unit suffix on duration gauges, so
// a reader can tell 1500 rows from 1500 microseconds. Names are rendered in
// their canonical snake_case form (CanonicalName), the same spelling the
// Prometheus exposition uses. Lines sort lexically, which groups metrics by
// type and then by name. This is also the default /metrics HTTP exposition
// format.
func (r *Registry) String() string {
	return r.Snapshot().String()
}

// String renders a snapshot in the registry text format.
func (s Snapshot) String() string {
	var lines []string
	if s.Build != nil {
		lines = append(lines, fmt.Sprintf("info build_info version=%s commit=%s go=%s",
			s.Build.Version, s.Build.Commit, s.Build.GoVersion))
	}
	for name, v := range s.Counters {
		lines = append(lines, fmt.Sprintf("counter %s %d", CanonicalName(name), v))
	}
	for name, g := range s.Gauges {
		if g.Unit != "" {
			lines = append(lines, fmt.Sprintf("gauge %s %d%s", CanonicalName(name), g.Value, g.Unit))
		} else {
			lines = append(lines, fmt.Sprintf("gauge %s %d", CanonicalName(name), g.Value))
		}
	}
	for name, st := range s.Timers {
		lines = append(lines, fmt.Sprintf("timer %s count=%d total=%v mean=%v min=%v max=%v",
			CanonicalName(name), st.Count, st.Total, st.Mean, st.Min, st.Max))
	}
	for name, st := range s.Histograms {
		if st.IsDuration {
			us := func(v int64) time.Duration { return time.Duration(v) * time.Microsecond }
			lines = append(lines, fmt.Sprintf("histogram %s count=%d p50=%v p95=%v p99=%v min=%v max=%v mean=%v",
				CanonicalName(name), st.Count, us(st.P50), us(st.P95), us(st.P99), us(st.Min), us(st.Max), us(st.Mean())))
		} else {
			lines = append(lines, fmt.Sprintf("histogram %s count=%d p50=%d p95=%d p99=%d min=%d max=%d mean=%d",
				CanonicalName(name), st.Count, st.P50, st.P95, st.P99, st.Min, st.Max, st.Mean()))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
