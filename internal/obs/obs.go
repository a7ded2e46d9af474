package obs

import (
	"time"

	"scuba/internal/metrics"
)

// Observer is where a daemon's observability sinks meet: a metrics registry
// (for /metrics and dashboards), the flight recorder (for post-mortems of the
// run that never got to serve /metrics), and — wired by the daemon once they
// exist — the hooks every finished span is handed to (the self-telemetry
// sink's RecordSpans, the profiler's OnSpans). Both span producers are made
// off it: Tracer for an aggregator's queries, Restart for a leaf's restarts.
// Any of them may be absent, and a nil *Observer is a valid no-op — callers
// instrument unconditionally and configuration decides what sticks.
type Observer struct {
	reg     *metrics.Registry
	rec     *Recorder
	onSpans []func(Trace)
	budget  time.Duration
}

// New creates an observer over a registry and recorder (either may be nil).
func New(reg *metrics.Registry, rec *Recorder) *Observer {
	return &Observer{reg: reg, rec: rec}
}

// OnSpans hands every batch of finished spans — a recorded query trace, the
// restart spans a ledger releases — to each fn, on the goroutine that
// finished them: fn must not block. Call it before the producers start; not
// safe concurrently with ending spans.
func (o *Observer) OnSpans(fns ...func(Trace)) { o.onSpans = append(o.onSpans, fns...) }

// SetBudget marks every restart span that runs longer than budget Slow, as
// the tracer's threshold does a query (0 marks none). Call it before the
// leaf's Start.
func (o *Observer) SetBudget(budget time.Duration) { o.budget = budget }

func (o *Observer) spansFinished(spans Trace) {
	if o == nil || len(spans) == 0 {
		return
	}
	for _, fn := range o.onSpans {
		fn(spans)
	}
}

// Registry returns the observer's metrics registry (nil when absent).
func (o *Observer) Registry() *metrics.Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Recorder returns the observer's flight recorder (nil when absent).
func (o *Observer) Recorder() *Recorder {
	if o == nil {
		return nil
	}
	return o.rec
}

// Event records a bare flight-recorder event outside any span.
func (o *Observer) Event(kind EventKind, phase, detail string) {
	if o == nil {
		return
	}
	o.rec.Record(kind, phase, detail)
}
