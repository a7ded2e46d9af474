package obs

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"scuba/internal/rowblock"
)

func ledgerRecorder(t *testing.T, dir string) *Recorder {
	t.Helper()
	rec, err := openRecorder(0, RecorderOptions{Dir: dir, Namespace: "ledger"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// What End writes into the ring, the next process reads back as the same
// span: the codec is the hand-off.
func TestSpanEventRoundTrip(t *testing.T) {
	start := time.UnixMicro(1_700_000_000_000_000)
	want := Span{
		TraceID: 0x7123456789abcdef, Kind: KindRestart, Half: HalfStart, Phase: PhaseTableCopyIn, Table: "service_logs@3",
		Worker: 2, Recovery: "memory", Blocks: 61, Bytes: 31 << 20,
		Start: start, Duration: 1234567 * time.Nanosecond, Err: "read block 7: payload CRC mismatch",
	}
	ev := Event{Kind: EventFail, Phase: want.eventPhase(), Detail: want.eventDetail(true),
		UnixMicros: want.End().UnixMicro()}
	got, ok := spanFromEvent(ev)
	if !ok {
		t.Fatalf("event %+v did not decode", ev)
	}
	if d := got.Start.Sub(want.Start); d < -time.Microsecond || d > time.Microsecond {
		t.Errorf("start drifted by %v", d)
	}
	got.Start = want.Start
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip:\ngot  %+v\nwant %+v", got, want)
	}
	clean := want
	clean.Err = ""
	if n := len(clean.eventDetail(true)); n > slotDetailMax-60 {
		t.Errorf("detail is %d bytes before the error: leaves under 60 of the slot's %d for its text", n, slotDetailMax)
	}

	// A whole-leaf span says less, and says it without a table or worker.
	leaf := Span{TraceID: 9, Half: HalfShutdown, Phase: PhaseCommit, Worker: -1, Duration: time.Millisecond}
	got, ok = spanFromEvent(Event{Kind: EventEnd, Phase: leaf.eventPhase(), Detail: leaf.eventDetail(true)})
	if !ok || got.Table != "" || got.Worker != -1 || got.Duration != time.Millisecond || got.Half != HalfShutdown {
		t.Errorf("whole-leaf span decoded as %+v (%v)", got, ok)
	}

	// Events that are not spans — notes, a pre-ledger binary's free text.
	for _, ev := range []Event{
		{Kind: EventNote, Phase: PhaseMap, Detail: "no shm metadata: taking the disk path"},
		{Kind: EventEnd, Phase: "copy-out:events", Detail: "worker 1, 3 blocks, 4096 bytes in 2ms"},
		{Kind: EventEnd, Phase: PhaseCommit, Detail: "trace=0 half=shutdown ns=5"},
		{Kind: EventNote, Phase: PhaseCommit, Detail: "trace=ff half=shutdown ns=5"},
	} {
		if sp, ok := spanFromEvent(ev); ok {
			t.Errorf("event %+v decoded as span %+v", ev, sp)
		}
	}
}

// A rollover hands an old binary's ring to a new binary, so the span-event
// text is a cross-version format: these literal strings are what the previous
// process — of any release since the ledger — wrote, and a change to the
// record must keep writing and reading them.
func TestSpanEventGolden(t *testing.T) {
	table := Span{TraceID: 0x7123456789abcdef, Kind: KindRestart, Half: HalfStart, Phase: PhaseTableCopyIn,
		Table: "service_logs@3", Worker: 2, Recovery: "memory", Blocks: 61, Bytes: 32505856, Duration: 1234567}
	failed := table
	failed.Err = "read block 7: payload CRC mismatch"
	leaf := Span{TraceID: 9, Kind: KindRestart, Half: HalfShutdown, Phase: PhaseCommit, Worker: -1, Duration: time.Millisecond}
	for _, g := range []struct {
		kind          EventKind
		sp            Span
		phase, detail string
	}{
		{EventBegin, table, "restart.table.copy_in:service_logs@3", "trace=7123456789abcdef half=start w=2"},
		{EventEnd, table, "restart.table.copy_in:service_logs@3",
			"trace=7123456789abcdef half=start w=2 src=memory blocks=61 bytes=32505856 ns=1234567"},
		{EventFail, failed, "restart.table.copy_in:service_logs@3",
			"trace=7123456789abcdef half=start w=2 src=memory blocks=61 bytes=32505856 ns=1234567 err=read block 7: payload CRC mismatch"},
		{EventBegin, leaf, "restart.commit", "trace=9 half=shutdown w=-1"},
		{EventEnd, leaf, "restart.commit", "trace=9 half=shutdown w=-1 src=- blocks=0 bytes=0 ns=1000000"},
	} {
		if phase, detail := g.sp.eventPhase(), g.sp.eventDetail(g.kind != EventBegin); phase != g.phase || detail != g.detail {
			t.Errorf("%v event of %s written as\n  %q %q, the pinned text is\n  %q %q", g.kind, g.sp.Phase, phase, detail, g.phase, g.detail)
		}
		got, ok := spanFromEvent(Event{Kind: g.kind, Phase: g.phase, Detail: g.detail, UnixMicros: 1_700_000_000_000_000})
		want := g.sp
		if want.Open = g.kind == EventBegin; want.Open {
			want.Recovery, want.Blocks, want.Bytes, want.Duration = "", 0, 0, 0 // a begin knows none of it yet
		}
		want.Start = time.UnixMicro(1_700_000_000_000_000).Add(-want.Duration)
		if !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("pinned %v event %q %q read as\n  %+v (%v), want\n  %+v", g.kind, g.phase, g.detail, got, ok, want)
		}
	}
}

// A table's name rides in the event's 64-byte phase field behind its phase. A
// name too long for it used to come back cut, and two such names with a
// common prefix collapsed onto one key and mis-paired their begins and ends.
func TestLongTableNamesCrossTheRestartApart(t *testing.T) {
	dir := t.TempDir()
	prefix := strings.Repeat("p", 60)
	a, b := prefix+strings.Repeat("a", 20), prefix+strings.Repeat("b", 20)
	rec1 := ledgerRecorder(t, dir)
	down := New(nil, rec1).Restart(HalfShutdown)
	// Two pool workers, interleaved as a pool interleaves them.
	sa := down.Begin(PhaseTableCopyOut, a, 0)
	sb := down.Begin(PhaseTableCopyOut, b, 1)
	sa.Blocks, sb.Blocks = 3, 5
	sa.End(nil)
	sb.End(nil)
	down.Begin(PhaseCommit, "", -1).End(nil)
	rec1.Close()

	rec2 := ledgerRecorder(t, dir)
	defer rec2.Close()
	adopted := New(nil, rec2).Restart(HalfStart).Spans()
	tables := adopted.Tables()
	if len(adopted) != 3 || len(tables) != 2 {
		t.Fatalf("adopted %d spans over %d tables, want 3 over 2: %+v", len(adopted), len(tables), adopted)
	}
	blocks := map[int]int{} // worker → blocks
	for _, tb := range tables {
		blocks[tb.Worker] = tb.Blocks
		if !strings.HasPrefix(tb.Table, prefix[:20]) {
			t.Errorf("table %q lost the start of its name", tb.Table)
		}
	}
	if blocks[0] != 3 || blocks[1] != 5 {
		t.Errorf("each table's end must pair with its own begin: blocks by worker = %v, want 0:3 1:5", blocks)
	}
	for _, sp := range adopted {
		if sp.Open {
			t.Errorf("span %+v was left open: its end paired with another table's begin", sp)
		}
	}
	// A name that fits is written byte for byte as before.
	if got := (Span{Phase: PhaseTableLogReset, Table: strings.Repeat("n", 40)}).eventPhase(); got != PhaseTableLogReset+":"+strings.Repeat("n", 40) || len(got) != slotPhaseMax {
		t.Errorf("a name that fits the slot was rewritten: %q", got)
	}
}

// The two halves of a restart run in two processes and share one trace ID
// through the flight-recorder ring; a crash in steady state hands over
// nothing; a crash inside a span leaves it open.
func TestLedgerCrossesTheProcessBoundary(t *testing.T) {
	dir := t.TempDir()

	// Process 1 starts (its own trace: nothing preceded it), then shuts down.
	rec1 := ledgerRecorder(t, dir)
	ob1 := New(nil, rec1)
	up1 := ob1.Restart(HalfStart)
	up1.Begin(PhaseMap, "", -1).End(nil)
	down := ob1.Restart(HalfShutdown)
	if down.TraceID() == up1.TraceID() {
		t.Fatal("a shutdown must open a new trace")
	}
	co := down.Begin(PhaseCopyOut, "", -1)
	tb := down.Begin(PhaseTableCopyOut, "events", 0)
	tb.Blocks, tb.Bytes = 4, 4096
	tb.End(nil)
	co.End(nil)
	down.Begin(PhaseCommit, "", -1).End(nil)
	rec1.Record(EventNote, "process.exit", "clean exit")
	rec1.Close()

	// Process 2 continues that trace and holds both halves.
	rec2 := ledgerRecorder(t, dir)
	up2 := New(nil, rec2).Restart(HalfStart)
	if up2.TraceID() != down.TraceID() {
		t.Fatalf("start half has trace %x, the shutdown it follows %x", up2.TraceID(), down.TraceID())
	}
	up2.Begin(PhaseMap, "", -1).End(nil)
	trace := up2.Spans()
	if got := len(trace.Half(HalfShutdown)); got != 3 {
		t.Fatalf("adopted %d shutdown spans, want 3: %+v", got, trace)
	}
	if got := trace.Half(HalfStart); len(got) != 1 || got[0].Phase != PhaseMap {
		t.Fatalf("start half = %+v", got)
	}
	for _, sp := range trace {
		if sp.TraceID != up2.TraceID() {
			t.Errorf("span %s of trace %x in ledger %x", sp.Phase, sp.TraceID, up2.TraceID())
		}
	}
	if b, n := trace.Half(HalfShutdown).Moved(); b != 4 || n != 4096 {
		t.Errorf("adopted shutdown half moved %d blocks, %d bytes", b, n)
	}

	// Process 2 is killed inside a span of a later shutdown: no Close, and a
	// begin with no end.
	down2 := New(nil, rec2).Restart(HalfShutdown)
	down2.Begin(PhaseCopyOut, "", -1)
	down2.Begin(PhaseTableSeal, "events", 1)

	rec3 := ledgerRecorder(t, dir)
	up3 := New(nil, rec3).Restart(HalfStart)
	if up3.TraceID() != down2.TraceID() {
		t.Fatalf("start after a crash mid-shutdown has trace %x, want the shutdown's %x", up3.TraceID(), down2.TraceID())
	}
	open := up3.Spans()
	if len(open) != 2 || !open[0].Open || !open[1].Open || open[1].Table != "events" || open[1].Worker != 1 {
		t.Fatalf("crash mid-shutdown left %+v, want two open spans", open)
	}
	up3.Begin(PhaseDiskRecovery, "", -1).End(nil)

	// Process 3 is killed in steady state: the next start follows no
	// shutdown and starts its own trace.
	rec4 := ledgerRecorder(t, dir)
	defer rec4.Close()
	up4 := New(nil, rec4).Restart(HalfStart)
	if up4.TraceID() == up3.TraceID() || len(up4.Spans()) != 0 {
		t.Fatalf("start after a steady-state crash: trace %x (previous %x), %d adopted spans",
			up4.TraceID(), up3.TraceID(), len(up4.Spans()))
	}
}

// Spans wait in the ledger until the leaf is ALIVE — the adopted shutdown
// half with them — because their rows are ingested by the leaf itself.
func TestSpansReachTheSinkOnceAlive(t *testing.T) {
	var mu sync.Mutex
	var rows []rowblock.Row
	sink := NewSink(SinkConfig{
		Source:          "leaf:1",
		MetricsInterval: -1,
		Emit: func(table string, batch []rowblock.Row) error {
			if table != SystemTracesTable {
				return errors.New("restart spans belong in " + SystemTracesTable)
			}
			mu.Lock()
			rows = append(rows, batch...)
			mu.Unlock()
			return nil
		},
	})
	defer sink.Close()
	emitted := func() int {
		sink.Flush()
		mu.Lock()
		defer mu.Unlock()
		return len(rows)
	}

	dir := t.TempDir()
	rec1 := ledgerRecorder(t, dir)
	ob1 := New(nil, rec1)
	ob1.OnSpans(sink.RecordSpans)
	down := ob1.Restart(HalfShutdown)
	down.Begin(PhaseCopyOut, "", -1).End(nil)
	down.Begin(PhaseCommit, "", -1).End(nil)
	rec1.Close()
	if n := emitted(); n != 0 {
		t.Fatalf("a dying process emitted %d span rows", n)
	}

	rec2 := ledgerRecorder(t, dir)
	defer rec2.Close()
	ob2 := New(nil, rec2)
	ob2.OnSpans(sink.RecordSpans)
	up := ob2.Restart(HalfStart)
	up.Begin(PhaseMap, "", -1).End(nil)
	sp := up.Begin(PhaseTableView, "events", 0)
	sp.Recovery, sp.Blocks = "shm-view", 7
	sp.End(nil)
	if n := emitted(); n != 0 {
		t.Fatalf("%d span rows emitted before ALIVE", n)
	}
	up.Begin(PhaseAlive, "", -1).End(nil)
	if n := emitted(); n != 5 {
		t.Fatalf("%d span rows after ALIVE, want both halves: 2 + 3", n)
	}
	up.Begin(PhaseFirstAnswer, "", -1).End(nil)
	if n := emitted(); n != 6 {
		t.Fatalf("%d span rows after the first answer, want 6", n)
	}
	mu.Lock()
	defer mu.Unlock()
	halves := map[string]int{}
	for _, r := range rows {
		if uint64(r.Cols["trace_id"].Int) != up.TraceID() || r.Cols["source"].Str != "leaf:1" {
			t.Errorf("row %+v is not of trace %d from leaf:1", r.Cols, up.TraceID())
		}
		halves[r.Cols["half"].Str]++
		if r.Cols["phase"].Str == PhaseTableView &&
			(r.Cols["table"].Str != "events" || r.Cols["recovery"].Str != "shm-view" || r.Cols["blocks"].Int != 7) {
			t.Errorf("view span row = %+v", r.Cols)
		}
	}
	if halves[HalfShutdown] != 2 || halves[HalfStart] != 4 {
		t.Errorf("rows per half = %v", halves)
	}
}

// TestTableSharesFitInTheWall: a shutdown worker seals a table, then runs
// its persist and its copy-out side by side. A table's share is its wall
// time, so no share exceeds the half's, and Slowest ranks by it: "a" spent
// more in its steps summed, "b" bounds the pool.
func TestTableSharesFitInTheWall(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 0)
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	span := func(phase, table string, worker, startMs, endMs, blocks int) Span {
		return Span{TraceID: 1, Kind: KindRestart, Half: HalfShutdown, Phase: phase, Table: table, Worker: worker,
			Blocks: blocks, Start: t0.Add(ms(startMs)), Duration: ms(endMs - startMs)}
	}
	half := Trace{
		span(PhaseQuiesce, "", -1, 0, 1, 0),
		span(PhaseCopyOut, "", -1, 1, 25, 0),
		span(PhaseTableSeal, "a", 0, 1, 5, 0),
		span(PhaseTablePersist, "a", 0, 5, 19, 0),
		span(PhaseTableCopyOut, "a", 0, 5, 20, 30),
		span(PhaseTableSeal, "b", 1, 1, 3, 0),
		span(PhaseTablePersist, "b", 1, 3, 24, 0),
		span(PhaseTableCopyOut, "b", 1, 3, 4, 2),
		span(PhaseCommit, "", -1, 25, 26, 0),
	}
	shares := half.Tables()
	if len(shares) != 2 || shares[0].Duration != ms(19) || shares[1].Duration != ms(23) {
		t.Fatalf("shares = %+v, want a 19 ms and b 23 ms", shares)
	}
	for _, sh := range shares {
		if sh.Duration > half.Elapsed() || sh.Start.Before(t0.Add(ms(1))) {
			t.Errorf("%s's share runs %v from %v, past the half's %v", sh.Table, sh.Duration, sh.Start, half.Elapsed())
		}
	}
	if got := shares.Slowest(); got.Table != "b" {
		t.Errorf("slowest = %q, want b", got.Table)
	}
}

// The views every consumer reads the ledger through, over a hand-made trace:
// nothing here ran a restart.
func TestTraceViews(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 0)
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	span := func(phase, table string, worker, startMs, durMs, blocks int, err string) Span {
		return Span{TraceID: 1, Kind: KindRestart, Half: HalfStart, Phase: phase, Table: table, Worker: worker,
			Recovery: "memory", Blocks: blocks, Bytes: int64(blocks) * 100, Start: t0.Add(ms(startMs)), Duration: ms(durMs), Err: err}
	}
	trace := Trace{
		span(PhaseMap, "", -1, 0, 2, 0, ""),
		span(PhaseCopyIn, "", -1, 2, 30, 0, ""),
		span(PhaseTableView, "a", 0, 2, 5, 0, ""),
		span(PhaseTableCopyIn, "a", 0, 7, 20, 8, ""),
		span(PhaseTableView, "b", 1, 2, 4, 0, "index checksum mismatch"),
		span(PhaseTableLoad, "b", 1, 6, 25, 3, ""),
		span(PhaseTableView, "lost", 1, 31, 1, 0, "no such segment"),
		span(PhaseTableLoad, "lost", 1, 32, 0, 2, "no such table"),
		span(PhaseAlive, "", -1, 32, 1, 0, ""),
		span(PhaseFirstAnswer, "", -1, 33, 7, 0, ""),
		span(PhasePromote, "", -1, 33, 500, 0, ""),
	}
	wantTables := Trace{
		{TraceID: 1, Kind: KindRestart, Half: HalfStart, Table: "a", Worker: 0, Blocks: 8, Bytes: 800, Start: t0.Add(ms(2)), Duration: ms(25)},
		{TraceID: 1, Kind: KindRestart, Half: HalfStart, Table: "b", Worker: 1, Blocks: 3, Bytes: 300, Start: t0.Add(ms(2)), Duration: ms(29)},
	}
	if got := trace.Tables(); !reflect.DeepEqual(got, wantTables) {
		t.Errorf("Tables() = %+v\nwant %+v (a lost table is not listed; a failed step's time still counts)", got, wantTables)
	}
	if got := trace.Tables().Slowest(); got.Table != "b" {
		t.Errorf("slowest = %+v", got)
	}
	if b, n := trace.Moved(); b != 11 || n != 1100 {
		t.Errorf("Moved() = %d, %d", b, n)
	}
	if b, _ := trace.Phases(PhaseTableLoad).Moved(); b != 3 {
		t.Errorf("images loaded = %d", b)
	}
	top := trace.TopLevel()
	if len(top) != 4 || top.Elapsed() != ms(40) {
		t.Errorf("top level = %d spans over %v, want 4 over 40ms (promotion is behind the gap)", len(top), top.Elapsed())
	}
	var sum time.Duration
	for i, sp := range top {
		sum += sp.Duration
		if i > 0 && sp.Start.Before(top[i-1].End()) {
			t.Errorf("%s overlaps %s", sp.Phase, top[i-1].Phase)
		}
	}
	if sum != top.Elapsed() {
		t.Errorf("top-level spans sum to %v over a gap of %v", sum, top.Elapsed())
	}
	if got := trace.Half(HalfShutdown); len(got) != 0 || got.Elapsed() != 0 {
		t.Errorf("shutdown half of a start-only trace = %+v", got)
	}
}
