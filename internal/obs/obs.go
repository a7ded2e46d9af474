package obs

import (
	"time"

	"scuba/internal/metrics"
)

// Observer is where a daemon's observability sinks meet: a metrics registry
// (for /metrics and dashboards), the flight recorder (for post-mortems of the
// run that never got to serve /metrics), and — wired by the daemon once they
// exist — the self-telemetry sink and the profiler's over-budget capture.
// Any of them may be absent, and a nil *Observer is a valid no-op — callers
// instrument unconditionally and configuration decides what sticks.
type Observer struct {
	reg  *metrics.Registry
	rec  *Recorder
	sink *Sink
	// budget and overBudget are the profiler's restart trigger: a finished
	// restart span longer than budget is handed to overBudget.
	budget     time.Duration
	overBudget func(RestartSpan)
}

// New creates an observer over a registry and recorder (either may be nil).
func New(reg *metrics.Registry, rec *Recorder) *Observer {
	return &Observer{reg: reg, rec: rec}
}

// SetSink makes finished restart spans rows of __system.traces through sink.
// Call it before the leaf's Start; not safe concurrently with ending spans.
func (o *Observer) SetSink(sink *Sink) { o.sink = sink }

// SetBudget hands every finished restart span longer than budget to capture
// (the continuous profiler's anomaly trigger). Call it before the leaf's
// Start; capture must not block.
func (o *Observer) SetBudget(budget time.Duration, capture func(RestartSpan)) {
	o.budget, o.overBudget = budget, capture
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
