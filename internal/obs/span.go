package obs

// The span record. Everything this system traces — a query fanned out over
// leaves, a restart's phases — is a list of one record, the Span, under one
// trace ID. Two producers fill it in, an aggregator's Tracer (trace.go) and a
// leaf's Restart ledger (restart.go); everything downstream of a finished
// span is shared: the Observer's span hooks, the __system.traces row and,
// read back from it, scuba-cli's waterfall.

import (
	"slices"
	"sort"
	"time"
)

// Span kinds.
const (
	KindQuery     = "query"      // a query on the aggregator that ran it: the trace's root
	KindQueryLeaf = "query.leaf" // one target's share of a query, a child of the root
	KindRestart   = "restart"    // a restart phase, or one table's share of it on one pool worker
)

// Span is one finished (or, after a crash, never finished) step of a trace.
// Fields a kind has no use for stay zero.
type Span struct {
	// TraceID is shared by every span of one query, or of one old-process →
	// new-process restart.
	TraceID uint64 `json:"trace_id"`
	// SpanID and Parent make a query's spans a tree: a leaf span's parent is
	// the root, and the root of an aggregator below another hangs under the
	// upstream's leaf span for it. Restart spans carry neither (the recorder
	// event has no room); a table's span belongs to the phase it ran in.
	SpanID uint64 `json:"span_id,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
	Kind   string `json:"kind"`
	// Phase names a restart step (a Phase* constant, the registry timer's
	// name too) and Half the process it ran in.
	Phase string `json:"phase,omitempty"`
	Half  string `json:"half,omitempty"`
	// Leaf labels a leaf span's target (its address when distributed).
	Leaf string `json:"leaf,omitempty"`
	// Table is the queried table, or the one a restart step carried.
	Table string `json:"table,omitempty"`
	// Worker is the pool worker of a table's restart step; -1 otherwise.
	Worker int `json:"worker"`
	// Recovery is where the data came from, in one vocabulary: the source a
	// restart step read ("memory", "shm-view", "disk", "wal"), or the
	// answering leaf's ExecStats.Recovery.
	Recovery string `json:"recovery,omitempty"`
	// Shards lists the shards a leaf was asked for (nil when unsharded): a
	// failed span's are the ones missing from the partial result.
	Shards []int `json:"shards,omitempty"`
	// Blocks and Bytes are what a block-moving restart step moved.
	Blocks int       `json:"blocks,omitempty"`
	Bytes  int64     `json:"bytes,omitempty"`
	Start  time.Time `json:"start"`
	// Duration is the wall time: a root's fan-out and merge; a leaf span's
	// round trip (minus Exec.LatencyNanos it is the network and the retries;
	// the elapsed time at abandonment for a leaf dropped at the deadline).
	Duration time.Duration `json:"duration_nanos"`
	// Err is how the step failed. A leaf span without one answered.
	Err string `json:"err,omitempty"`
	// Open marks a begin that never got its end: the process died inside.
	Open bool `json:"open,omitempty"`
	// Query, ShardsTotal and ShardsAnswered belong to a root: the rendered
	// query and exactly the merged Result's shard coverage.
	Query          string `json:"query,omitempty"`
	ShardsTotal    int    `json:"shards_total,omitempty"`
	ShardsAnswered int    `json:"shards_answered,omitempty"`
	// Slow is the producer's verdict: a root at or over the tracer's slow
	// threshold, a restart step over the observer's budget.
	Slow bool `json:"slow,omitempty"`
	// Exec is an answering target's execution report (nil from a pre-trace peer).
	Exec *ExecStats `json:"exec,omitempty"`
}

// End is when the span finished.
func (s Span) End() time.Time { return s.Start.Add(s.Duration) }

// moved reports whether the span is a block-moving restart step that
// succeeded: only those count blocks and bytes and make a table carried.
func (s Span) moved() bool { return carriesBlocks[s.Phase] && s.Err == "" && !s.Open }

// Trace is a list of spans — a query's root then its leaf spans, or a
// restart's steps in start order — and its methods the views everything reads
// it through.
type Trace []Span

func (t Trace) keep(keep func(Span) bool) Trace {
	var out Trace
	for _, sp := range t {
		if keep(sp) {
			out = append(out, sp)
		}
	}
	return out
}

// Root returns a query trace's root — its first span — and the zero span for
// any other trace.
func (t Trace) Root() Span {
	if len(t) > 0 && t[0].Kind == KindQuery {
		return t[0]
	}
	return Span{}
}

// Leaves keeps a query's per-target spans.
func (t Trace) Leaves() Trace {
	return t.keep(func(sp Span) bool { return sp.Kind == KindQueryLeaf })
}

// Answered counts the spans that finished without an error.
func (t Trace) Answered() int {
	return len(t.keep(func(sp Span) bool { return sp.Err == "" && !sp.Open }))
}

// Half keeps one half's spans.
func (t Trace) Half(half string) Trace {
	return t.keep(func(sp Span) bool { return sp.Half == half })
}

// Phases keeps the spans of the given phases.
func (t Trace) Phases(phases ...string) Trace {
	return t.keep(func(sp Span) bool { return slices.Contains(phases, sp.Phase) })
}

// TopLevel keeps the whole-leaf restart spans that make up the availability
// gap: in one half they follow one another without overlap. Promotion is
// whole-leaf too, but runs behind the gap.
func (t Trace) TopLevel() Trace {
	return t.keep(func(sp Span) bool { return sp.Table == "" && sp.Phase != PhasePromote })
}

// Elapsed is the wall time from the first span's start to the last span's
// end (0 for an empty trace).
func (t Trace) Elapsed() time.Duration {
	var first, last time.Time
	for i, sp := range t {
		if i == 0 || sp.Start.Before(first) {
			first = sp.Start
		}
		if end := sp.End(); i == 0 || end.After(last) {
			last = end
		}
	}
	return last.Sub(first)
}

// Moved sums the blocks and bytes of the block-moving steps that succeeded.
func (t Trace) Moved() (blocks int, bytes int64) {
	for _, sp := range t {
		if sp.moved() {
			blocks += sp.Blocks
			bytes += sp.Bytes
		}
	}
	return blocks, bytes
}

// Tables rolls a restart's per-table spans up into one span per table, sorted
// by name: its worker, its first step's start, the blocks and bytes of its
// block-moving steps that succeeded, and as Duration the sum of every step,
// failed ones too — the time was spent. A table is listed when a block-moving
// step succeeded for it: one lost, or whose only source failed, is not.
func (t Trace) Tables() Trace {
	shares := make(map[string]*Span)
	carried := make(map[string]bool)
	for _, sp := range t {
		if sp.Table == "" || sp.Open {
			continue
		}
		st := shares[sp.Table]
		if st == nil {
			st = &Span{TraceID: sp.TraceID, Kind: KindRestart, Half: sp.Half, Table: sp.Table, Start: sp.Start}
			shares[sp.Table] = st
		}
		st.Worker = sp.Worker
		st.Duration += sp.Duration
		if sp.moved() {
			carried[sp.Table] = true
			st.Blocks += sp.Blocks
			st.Bytes += sp.Bytes
		}
	}
	out := make(Trace, 0, len(carried))
	for name := range carried {
		out = append(out, *shares[name])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Table < out[j].Table })
	return out
}

// Slowest returns the share that took longest: of a query trace the answered
// leaf with the longest round trip, of Tables() the table that bounds a
// pool's wall time (§4.2). Roots and spans that failed or never ended do not
// compete; the zero span when nothing does.
func (t Trace) Slowest() Span {
	var slow Span
	for _, sp := range t {
		if sp.Kind != KindQuery && sp.Err == "" && !sp.Open && sp.Duration > slow.Duration {
			slow = sp
		}
	}
	return slow
}
