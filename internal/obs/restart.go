package obs

// The restart ledger. A restart — the old process's shutdown half and the new
// process's start half — is one trace made of one kind of record, the
// RestartSpan: a phase, optionally one table's share of it on one pool
// worker, where the data came from, how much of it moved, when, for how long,
// and how it failed. The leaf opens a span around every step of Figures 6 and
// 7 and nothing else records those facts: Span.End is the only place that
// feeds
//
//  1. the registry timer named after the phase,
//  2. the flight recorder's begin/end/fail events,
//  3. the in-memory trace (RecoveryInfo, ShutdownInfo and /debug/recovery are
//     views of it),
//  4. the __system.traces rows, and
//  5. the profiler's over-budget capture.
//
// The two halves run in different processes. What joins them is what already
// crosses the restart: the flight-recorder ring. Every span event carries its
// trace ID, and a start half whose predecessor's last recorded span belonged
// to a shutdown continues that trace and adopts its spans — so the shm layout
// and its metadata are untouched, and a binary that writes no span events
// simply hands over nothing. A crash leaves what a crash leaves: a begin with
// no end, which the next process shows as an open span.

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// The two halves of a restart.
const (
	HalfShutdown = "shutdown"
	HalfStart    = "start"
)

// Phase names. A phase is the registry timer's name too, so a whole-leaf
// phase's Total is that phase's wall time; a table's share of it runs under
// a restart.table.* name of its own, whose Total sums over tables and
// workers.
const (
	// Shutdown half, in order (Figure 6).
	PhaseQuiesce = "restart.quiesce"  // stop promotion, stop accepting requests
	PhaseCopyOut = "restart.copy_out" // every table heap → shm, on the copy pool
	PhaseCommit  = "restart.commit"   // the valid bit
	PhaseExit    = "restart.exit"     // drop tables, close the log, EXIT

	// Start half, in order (Figure 7). Exactly one of copy_in, view and
	// disk_recovery runs, by where the tables come from.
	PhaseMap          = "restart.map" // read metadata, clear the valid bit, list the sources
	PhaseCopyIn       = "restart.copy_in"
	PhaseView         = "restart.view"
	PhaseDiskRecovery = "restart.disk_recovery"
	PhaseAlive        = "restart.alive"        // consume the backup, go ALIVE
	PhaseFirstAnswer  = "restart.first_answer" // ALIVE to the first answered query
	// PhasePromote runs behind the gap, not in it: the background drain of
	// shm-resident blocks to the heap after an instant-on start.
	PhasePromote = "restart.promote"

	// One table's steps on one pool worker.
	PhaseTableSeal     = "restart.table.seal"      // seal the unsealed tail (PREPARE)
	PhaseTablePersist  = "restart.table.persist"   // unpersisted images + watermark, fsynced
	PhaseTableCopyOut  = "restart.table.copy_out"  // blocks heap → segment
	PhaseTableCRC      = "restart.table.crc"       // open the segment, verify the payload CRC
	PhaseTableCopyIn   = "restart.table.copy_in"   // blocks segment → heap
	PhaseTableView     = "restart.table.view"      // map read-only, verify, decode in place
	PhaseTableAdopt    = "restart.table.adopt"     // match the store's images to the blocks
	PhaseTableLoad     = "restart.table.load"      // the store's images → heap
	PhaseTableReplay   = "restart.table.replay"    // the log tail past the watermark
	PhaseTableLogReset = "restart.table.log_reset" // restart the log at the table's next row
)

// carriesBlocks says which phases move a table's blocks: a table counts as
// carried across the restart when one of them succeeded for it, and only
// they report blocks and bytes.
var carriesBlocks = map[string]bool{
	PhaseTableCopyOut: true,
	PhaseTableCopyIn:  true,
	PhaseTableView:    true,
	PhaseTableLoad:    true,
}

// RestartSpan is one finished (or, after a crash, never finished) step of a
// restart.
type RestartSpan struct {
	// TraceID is shared by every span of one old-process → new-process
	// restart.
	TraceID uint64 `json:"trace_id"`
	Half    string `json:"half"`
	Phase   string `json:"phase"`
	// Table and Worker are set on a table's share of a phase; a whole-leaf
	// span has no table and worker -1.
	Table  string `json:"table,omitempty"`
	Worker int    `json:"worker"`
	// Source is the recovery source the step read from ("memory", "shm-view",
	// "disk", "wal"); empty on the shutdown half.
	Source   string        `json:"source,omitempty"`
	Blocks   int           `json:"blocks,omitempty"`
	Bytes    int64         `json:"bytes,omitempty"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_nanos"`
	Err      string        `json:"err,omitempty"`
	// Open marks a begin that never got its end: the process died inside.
	Open bool `json:"open,omitempty"`
}

// End is when the span finished.
func (s RestartSpan) End() time.Time { return s.Start.Add(s.Duration) }

// moved reports whether the span is a block-moving step that succeeded: the
// only spans whose blocks and bytes count, and what makes a table carried.
func (s RestartSpan) moved() bool { return carriesBlocks[s.Phase] && s.Err == "" && !s.Open }

// eventPhase is the span's flight-recorder phase: "<phase>" or
// "<phase>:<table>".
func (s RestartSpan) eventPhase() string {
	if s.Table == "" {
		return s.Phase
	}
	return s.Phase + ":" + s.Table
}

// eventDetail encodes what the event's own fields (kind, phase, timestamp)
// do not say: a begin names the trace and the worker, an end what was found.
// The error goes last: the slot truncates at 160 bytes.
func (s RestartSpan) eventDetail(done bool) string {
	d := fmt.Sprintf("trace=%x half=%s w=%d", s.TraceID, s.Half, s.Worker)
	if done {
		d += fmt.Sprintf(" src=%s blocks=%d bytes=%d ns=%d", cmp.Or(s.Source, "-"), s.Blocks, s.Bytes, int64(s.Duration))
	}
	if s.Err != "" {
		d += " err=" + s.Err
	}
	return d
}

// spanFromEvent decodes a span event; ok is false for every other event
// (notes, another daemon's spans, a binary that predates the ledger).
func spanFromEvent(ev Event) (sp RestartSpan, ok bool) {
	head, errText, _ := strings.Cut(ev.Detail, " err=")
	n, _ := fmt.Sscanf(head, "trace=%x half=%s w=%d src=%s blocks=%d bytes=%d ns=%d",
		&sp.TraceID, &sp.Half, &sp.Worker, &sp.Source, &sp.Blocks, &sp.Bytes, &sp.Duration)
	switch {
	case n == 3 && ev.Kind == EventBegin:
		sp.Start, sp.Open = ev.Time(), true
	case n == 7 && (ev.Kind == EventEnd || ev.Kind == EventFail):
		sp.Start = ev.Time().Add(-sp.Duration)
	default:
		return sp, false
	}
	sp.Phase, sp.Table, _ = strings.Cut(ev.Phase, ":")
	sp.Source = strings.TrimPrefix(sp.Source, "-")
	sp.Err = errText
	return sp, sp.TraceID != 0
}

// TraceFromEvents rebuilds the restart spans a flight-recorder dump holds,
// in the order they began. A begin whose end never came stays in the trace as
// an open span.
func TraceFromEvents(events []Event) RestartTrace {
	var out RestartTrace
	begun := make(map[string]int) // trace + event phase → index of the open span
	for _, ev := range events {
		sp, ok := spanFromEvent(ev)
		if !ok {
			continue
		}
		key := fmt.Sprint(sp.TraceID, ev.Phase)
		i, open := begun[key]
		switch {
		case sp.Open:
			begun[key] = len(out)
			out = append(out, sp)
		case open:
			out[i] = sp
			delete(begun, key)
		default: // the ring wrapped past the begin
			out = append(out, sp)
		}
	}
	return out
}

// RestartTrace is a list of restart spans; its methods are the views the
// leaf, the daemons and the tools read it through.
type RestartTrace []RestartSpan

func (t RestartTrace) keep(keep func(RestartSpan) bool) RestartTrace {
	var out RestartTrace
	for _, sp := range t {
		if keep(sp) {
			out = append(out, sp)
		}
	}
	return out
}

// Half keeps one half's spans.
func (t RestartTrace) Half(half string) RestartTrace {
	return t.keep(func(sp RestartSpan) bool { return sp.Half == half })
}

// Phases keeps the spans of the given phases.
func (t RestartTrace) Phases(phases ...string) RestartTrace {
	return t.keep(func(sp RestartSpan) bool { return slices.Contains(phases, sp.Phase) })
}

// TopLevel keeps the whole-leaf spans that make up the availability gap: in
// one half they follow one another without overlap. Promotion is whole-leaf
// too, but runs behind the gap.
func (t RestartTrace) TopLevel() RestartTrace {
	return t.keep(func(sp RestartSpan) bool { return sp.Table == "" && sp.Phase != PhasePromote })
}

// Elapsed is the wall time from the first span's start to the last span's
// end (0 for an empty trace).
func (t RestartTrace) Elapsed() time.Duration {
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
func (t RestartTrace) Moved() (blocks int, bytes int64) {
	for _, sp := range t {
		if sp.moved() {
			blocks += sp.Blocks
			bytes += sp.Bytes
		}
	}
	return blocks, bytes
}

// TableShare is one table's share of a trace: which worker carried it, how
// much moved, and the time of all its steps together.
type TableShare struct {
	Table    string
	Worker   int
	Blocks   int
	Bytes    int64
	Duration time.Duration
}

// Tables rolls the per-table spans up by table, sorted by name. A table is
// listed when a block-moving step succeeded for it: one that was lost, or
// whose only source failed, is not. Blocks and bytes count the successful
// block-moving steps; Duration counts every step, failed ones too — the time
// was spent.
func (t RestartTrace) Tables() []TableShare {
	shares := make(map[string]*TableShare)
	carried := make(map[string]bool)
	for _, sp := range t {
		if sp.Table == "" || sp.Open {
			continue
		}
		st := shares[sp.Table]
		if st == nil {
			st = &TableShare{Table: sp.Table}
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
	out := make([]TableShare, 0, len(carried))
	for name := range carried {
		out = append(out, *shares[name])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Table < out[j].Table })
	return out
}

// Slowest returns the share with the longest duration — the table that
// bounds a pool's wall time (§4.2). The zero share when there are none.
func Slowest(shares []TableShare) TableShare {
	var slow TableShare
	for _, st := range shares {
		if st.Duration > slow.Duration {
			slow = st
		}
	}
	return slow
}

// Restart is the ledger of one half of a restart in this process. Safe for
// concurrent use: the copy pool's workers end spans while /debug/recovery
// renders them.
type Restart struct {
	o    *Observer // nil: spans are kept in memory and go nowhere else
	id   uint64
	half string

	mu    sync.Mutex
	spans RestartTrace
	// live is set once the leaf is ALIVE and can ingest its own telemetry;
	// until then finished spans wait, the adopted shutdown half among them.
	// sunk counts the spans already handed to the sink.
	live bool
	sunk int
}

// Restart opens the ledger for one half of a restart. Every Shutdown starts
// a new trace. A Start continues the trace of the shutdown that preceded it,
// when the flight recorder (the previous process's ring, or this process's
// own after an in-process restart) shows one, and adopts that half's spans;
// otherwise — a crash in steady state, no recorder — it starts its own. Works
// on a nil Observer: the leaf derives its RecoveryInfo from the ledger
// whether or not anything else listens.
func (o *Observer) Restart(half string) *Restart {
	r := &Restart{o: o, half: half, id: RandomID()>>1 | 1} // 63 bits: the ID is an int64 column of __system.traces
	if half != HalfStart {
		return r
	}
	rec := o.Recorder()
	prev := TraceFromEvents(append(rec.Previous(), rec.Events()...))
	if n := len(prev); n > 0 && prev[n-1].Half == HalfShutdown {
		r.id = prev[n-1].TraceID
		for _, sp := range prev {
			if sp.TraceID == r.id {
				r.spans = append(r.spans, sp)
			}
		}
	}
	return r
}

// TraceID identifies the restart this ledger belongs to.
func (r *Restart) TraceID() uint64 { return r.id }

// Spans returns the ledger so far in start order: the adopted shutdown half,
// then every span of this half that has ended. Nil on a nil ledger (a leaf
// that has not started).
func (r *Restart) Spans() RestartTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append(RestartTrace(nil), r.spans...)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// Span is a restart span in progress. Between Begin and End the caller fills
// in what the step found out: Source, Blocks, Bytes.
type Span struct {
	RestartSpan
	r    *Restart
	done bool
}

// Begin opens a span: a whole-leaf phase (table "", worker -1) or one
// table's share of it on a pool worker. The begin event reaches the flight
// recorder before the work it covers starts — it may be the last thing this
// process records.
func (r *Restart) Begin(phase, table string, worker int) *Span {
	s := &Span{r: r, RestartSpan: RestartSpan{
		TraceID: r.id, Half: r.half, Phase: phase, Table: table, Worker: worker,
	}}
	r.record(EventBegin, s.RestartSpan)
	s.Start = time.Now()
	return s
}

// record writes a span's begin, end or fail event to the flight recorder, if
// there is one to write to.
func (r *Restart) record(kind EventKind, sp RestartSpan) {
	if rec := r.o.Recorder(); rec != nil {
		rec.Record(kind, sp.eventPhase(), sp.eventDetail(kind != EventBegin))
	}
}

// End finishes the span — err == nil is success, otherwise the failure and
// its reason — and feeds every sink the ledger has. Failed spans count toward
// the timers too: a 20-minute failed copy is exactly what the breakdown must
// show. End is idempotent; a span belongs to one goroutine.
func (s *Span) End(err error) {
	if s.done {
		return
	}
	s.done = true
	s.Duration = time.Since(s.Start)
	if err != nil {
		s.Err = err.Error()
	}
	sp, r := s.RestartSpan, s.r
	o := r.o

	if reg := o.Registry(); reg != nil {
		reg.Timer(sp.Phase).Observe(sp.Duration)
	}
	if err != nil {
		r.record(EventFail, sp)
	} else {
		r.record(EventEnd, sp)
	}

	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.live = r.live || (sp.Phase == PhaseAlive && err == nil)
	var rows RestartTrace
	if r.live {
		rows = append(rows, r.spans[r.sunk:]...)
		r.sunk = len(r.spans)
	}
	r.mu.Unlock()
	if o == nil {
		return
	}
	o.sink.RecordRestartSpans(rows)
	if o.overBudget != nil && sp.Duration > o.budget {
		o.overBudget(sp)
	}
}
