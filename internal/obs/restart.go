package obs

// The restart ledger. A restart — the old process's shutdown half and the new
// process's start half — is one trace of Spans of kind restart (span.go): a
// phase, optionally one table's share of it on one pool worker, where the
// data came from, how much of it moved, when, for how long, and how it
// failed. The leaf opens a span around every step of Figures 6 and 7 and
// nothing else records those facts: ActiveSpan.End is the only place that
// feeds
//
//  1. the registry timer named after the phase,
//  2. the flight recorder's begin/end/fail events,
//  3. the in-memory trace (RecoveryInfo and ShutdownInfo are views of it),
//     and
//  4. the observer's span hooks: the __system.traces rows and the profiler's
//     over-budget capture.
//
// The two halves run in different processes. What joins them is what already
// crosses the restart, the flight-recorder ring (Observer.Restart) — so the
// shm layout and its metadata are untouched, and a binary that writes no span
// events simply hands over nothing. A crash leaves what a crash leaves: a
// begin with no end, which the next process shows as an open span.

import (
	"cmp"
	"fmt"
	"hash/crc32"
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
	PhaseTablePersist  = "restart.table.persist"   // unpersisted images + watermark, fsynced; at shutdown, then the log emptied
	PhaseTableCopyOut  = "restart.table.copy_out"  // blocks heap → segment
	PhaseTableCopyIn   = "restart.table.copy_in"   // blocks segment → heap
	PhaseTableView     = "restart.table.view"      // map read-only, check metadata, decode in place
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

// eventPhase is the span's flight-recorder phase: "<phase>" or
// "<phase>:<table>". The slot holds slotPhaseMax bytes of it: a longer one
// gives up its tail for "~" and the table name's CRC, so two long names that
// share a prefix still read back as two tables and pair their own begin and
// end. Names that fit are written as they are.
func (s Span) eventPhase() string {
	if s.Table == "" {
		return s.Phase
	}
	p := s.Phase + ":" + s.Table
	if len(p) > slotPhaseMax {
		p = fmt.Sprintf("%s~%08x", p[:slotPhaseMax-9], crc32.ChecksumIEEE([]byte(s.Table)))
	}
	return p
}

// eventDetail encodes what the event's own fields (kind, phase, timestamp)
// do not say: a begin names the trace and the worker, an end what was found.
// The error goes last: the slot truncates at 160 bytes.
func (s Span) eventDetail(done bool) string {
	d := fmt.Sprintf("trace=%x half=%s w=%d", s.TraceID, s.Half, s.Worker)
	if done {
		d += fmt.Sprintf(" src=%s blocks=%d bytes=%d ns=%d", cmp.Or(s.Recovery, "-"), s.Blocks, s.Bytes, int64(s.Duration))
	}
	if s.Err != "" {
		d += " err=" + s.Err
	}
	return d
}

// spanFromEvent decodes a span event; ok is false for every other event
// (notes, another daemon's spans, a binary that predates the ledger).
func spanFromEvent(ev Event) (sp Span, ok bool) {
	sp.Kind = KindRestart
	head, errText, _ := strings.Cut(ev.Detail, " err=")
	n, _ := fmt.Sscanf(head, "trace=%x half=%s w=%d src=%s blocks=%d bytes=%d ns=%d",
		&sp.TraceID, &sp.Half, &sp.Worker, &sp.Recovery, &sp.Blocks, &sp.Bytes, &sp.Duration)
	switch {
	case n == 3 && ev.Kind == EventBegin:
		sp.Start, sp.Open = ev.Time(), true
	case n == 7 && (ev.Kind == EventEnd || ev.Kind == EventFail):
		sp.Start = ev.Time().Add(-sp.Duration)
	default:
		return sp, false
	}
	sp.Phase, sp.Table, _ = strings.Cut(ev.Phase, ":")
	sp.Recovery = strings.TrimPrefix(sp.Recovery, "-")
	sp.Err = errText
	return sp, sp.TraceID != 0
}

// TraceFromEvents rebuilds the restart spans a flight-recorder dump holds,
// in the order they began. A begin whose end never came stays in the trace as
// an open span.
func TraceFromEvents(events []Event) Trace {
	var out Trace
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

// Restart is the ledger of one half of a restart in this process. Safe for
// concurrent use: the copy pool's workers end spans while Leaf.Recovery and
// Leaf.RestartTrace read them.
type Restart struct {
	o    *Observer // nil: spans are kept in memory and go nowhere else
	id   uint64
	half string

	mu    sync.Mutex
	spans Trace
	// live is set once the leaf is ALIVE and can ingest its own telemetry;
	// until then finished spans wait, the adopted shutdown half among them.
	// sunk counts the spans already handed to the observer's span hooks.
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
	r := &Restart{o: o, half: half, id: newTraceID()}
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
func (r *Restart) Spans() Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append(Trace(nil), r.spans...)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// ActiveSpan is a restart span in progress. Between Begin and End the caller
// fills in what the step found out: Recovery, Blocks, Bytes.
type ActiveSpan struct {
	Span
	r    *Restart
	done bool
}

// Begin opens a span: a whole-leaf phase (table "", worker -1) or one
// table's share of it on a pool worker. The begin event reaches the flight
// recorder before the work it covers starts — it may be the last thing this
// process records.
func (r *Restart) Begin(phase, table string, worker int) *ActiveSpan {
	s := &ActiveSpan{r: r, Span: Span{
		TraceID: r.id, Kind: KindRestart, Half: r.half, Phase: phase, Table: table, Worker: worker,
	}}
	r.record(EventBegin, s.Span)
	s.Start = time.Now()
	return s
}

// record writes a span's begin, end or fail event to the flight recorder, if
// there is one to write to.
func (r *Restart) record(kind EventKind, sp Span) {
	if rec := r.o.Recorder(); rec != nil {
		rec.Record(kind, sp.eventPhase(), sp.eventDetail(kind != EventBegin))
	}
}

// End finishes the span — err == nil is success, otherwise the failure and
// its reason — and feeds every sink the ledger has. Failed spans count toward
// the timers too: a 20-minute failed copy is exactly what the breakdown must
// show. End is idempotent; a span belongs to one goroutine.
func (s *ActiveSpan) End(err error) {
	if s.done {
		return
	}
	s.done = true
	s.Duration = time.Since(s.Start)
	if err != nil {
		s.Err = err.Error()
	}
	r := s.r
	o := r.o
	if o != nil {
		s.Slow = o.budget > 0 && s.Duration > o.budget
	}
	sp := s.Span

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
	var ready Trace
	if r.live {
		ready = append(ready, r.spans[r.sunk:]...)
		r.sunk = len(r.spans)
	}
	r.mu.Unlock()
	o.spansFinished(ready)
}
