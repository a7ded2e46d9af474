package obs

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func testOpts(t *testing.T, dir string) RecorderOptions {
	t.Helper()
	var micros int64
	return RecorderOptions{
		Dir:       dir,
		Namespace: "obstest",
		Clock: func() int64 {
			micros++
			return micros
		},
	}
}

// TestKillAndReread is the crash scenario the recorder exists for: a
// process records phase events, dies without closing anything (the segment
// file simply survives in tmpfs), and a fresh "process" — a second
// OpenFlightRecorder on the same identity — reads the previous run's last
// recorded phase.
func TestKillAndReread(t *testing.T) {
	dir := t.TempDir()
	r1, err := openRecorder(0, testOpts(t, dir), 8)
	if err != nil {
		t.Fatal(err)
	}
	r1.Record(EventNote, "process.start", "")
	r1.Record(EventBegin, "restart.copy_out", "")
	r1.Record(EventBegin, "copy-out:service_logs", "")
	r1.Record(EventFail, "copy-out:service_logs", "block 3: injected fault")
	// No Close: the "process" is killed here. The tmpfs file keeps
	// the bytes regardless.

	r2, err := openRecorder(0, testOpts(t, dir), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	prev := r2.Previous()
	if len(prev) != 4 {
		t.Fatalf("previous events = %d, want 4: %+v", len(prev), prev)
	}
	last := prev[len(prev)-1]
	if last.Phase != "copy-out:service_logs" || last.Kind != EventFail || !strings.Contains(last.Detail, "injected fault") {
		t.Errorf("last event = %+v", last)
	}
	// Sequence numbering continues across runs so a merged dump orders.
	r2.Record(EventNote, "process.start", "")
	cur := r2.Events()
	if len(cur) != 1 || cur[0].Seq != prev[len(prev)-1].Seq+1 {
		t.Errorf("current events = %+v after previous %+v", cur, prev)
	}
}

func TestRingWraparound(t *testing.T) {
	dir := t.TempDir()
	r1, err := openRecorder(0, testOpts(t, dir), 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		r1.Record(EventNote, "phase", fmt.Sprintf("event %d", i))
	}
	if got := len(r1.Events()); got != 8 {
		t.Fatalf("current events = %d, want capacity 8", got)
	}

	r2, err := openRecorder(0, testOpts(t, dir), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	prev := r2.Previous()
	if len(prev) != 8 {
		t.Fatalf("previous events = %d, want 8", len(prev))
	}
	// Only the newest 8 survive, in order.
	for i, ev := range prev {
		if want := fmt.Sprintf("event %d", 12+i); ev.Detail != want {
			t.Errorf("event %d detail = %q, want %q", i, ev.Detail, want)
		}
	}
}

// TestTornSlotSkipped corrupts one byte of a recorded slot — simulating a
// write torn by a crash — and checks the reader skips that slot instead of
// returning garbage.
func TestTornSlotSkipped(t *testing.T) {
	dir := t.TempDir()
	r1, err := openRecorder(3, testOpts(t, dir), 8)
	if err != nil {
		t.Fatal(err)
	}
	r1.Record(EventBegin, "restart.copy_out", "")
	r1.Record(EventEnd, "restart.copy_out", "")
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "obstest-obs-leaf3-flightrec")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the second slot's phase field.
	b[recHeaderSize+recSlotSize+slotFixedSize] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	r2, err := openRecorder(3, testOpts(t, dir), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	prev := r2.Previous()
	if len(prev) != 1 {
		t.Fatalf("previous events = %d, want 1 (torn slot skipped)", len(prev))
	}
	if prev[0].Kind != EventBegin {
		t.Errorf("surviving event = %+v", prev[0])
	}
}

// TestVersionSkew rewrites the header version; the next open must treat the
// ring as unreadable, exactly like a data segment with layout skew.
func TestVersionSkew(t *testing.T) {
	dir := t.TempDir()
	r1, err := openRecorder(0, testOpts(t, dir), 8)
	if err != nil {
		t.Fatal(err)
	}
	r1.Record(EventNote, "x", "")
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "obstest-obs-leaf0-flightrec")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(b[4:], RecorderVersion+1)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	r2, err := openRecorder(0, testOpts(t, dir), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if prev := r2.Previous(); prev != nil {
		t.Errorf("previous = %+v, want nil on version skew", prev)
	}
}

func TestNoPreviousRun(t *testing.T) {
	r, err := openRecorder(0, testOpts(t, t.TempDir()), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if prev := r.Previous(); prev != nil {
		t.Errorf("previous = %+v on first open", prev)
	}
}

// TestConcurrentRecord drives Record from many goroutines (the parallel
// copy workers do exactly this); the race detector checks the locking and
// the ring must hold the newest capacity events intact.
func TestConcurrentRecord(t *testing.T) {
	r, err := openRecorder(0, testOpts(t, t.TempDir()), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r.Record(EventNote, fmt.Sprintf("worker%d", w), "tick")
			}
		}(w)
	}
	wg.Wait()
	events := r.Events()
	if len(events) != 64 {
		t.Fatalf("events = %d, want full ring 64", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq != events[i-1].Seq+1 {
			t.Fatalf("sequence gap at %d: %d -> %d", i, events[i-1].Seq, events[i].Seq)
		}
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Record(EventNote, "x", "y") // must not panic
	if r.Events() != nil || r.Previous() != nil {
		t.Error("nil recorder returned events")
	}
	if err := r.Close(); err != nil {
		t.Error(err)
	}
}

var update = flag.Bool("update", false, "rewrite testdata/flightrec-v1.golden")

// goldenRecords are the events TestRingGoldenV1 records, in order: every
// kind, a phase and a detail past their slot fields, and three more events
// than the ring's eight slots, so the ring has wrapped.
var goldenRecords = []struct {
	kind          EventKind
	phase, detail string
}{
	{EventNote, "process.start", "leaf 2"},
	{EventBegin, "restart.copy_out", ""},
	{EventBegin, "copy-out:" + strings.Repeat("service_logs.", 7), ""},
	{EventEnd, "copy-out:" + strings.Repeat("service_logs.", 7), ""},
	{EventBegin, "copy-out:events", ""},
	{EventFail, "copy-out:events", "block 3: injected fault"},
	{EventEnd, "restart.copy_out", ""},
	{EventBegin, "restart.commit", ""},
	{EventFail, "restart.commit", strings.Repeat("disk full; ", 20)},
	{EventNote, "signal", "SIGTERM"},
	{EventEnd, "restart.exit", ""},
}

// TestRingGoldenV1 pins the bytes of a RecorderVersion 1 ring: this writer
// must lay down testdata/flightrec-v1.golden byte for byte, and the reader
// must take that file back as the events recorded into it, so a release and
// the one before it read each other's rings. Regenerate with -update ONLY
// with a RecorderVersion bump.
func TestRingGoldenV1(t *testing.T) {
	golden := filepath.Join("testdata", "flightrec-v1.golden")
	const base = int64(1700000000000000)
	opts := func(dir string) RecorderOptions {
		now := base
		return RecorderOptions{Dir: dir, Namespace: "golden", Clock: func() int64 { now += 250; return now }}
	}
	dir := t.TempDir()
	r, err := openRecorder(2, opts(dir), 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range goldenRecords {
		r.Record(e.kind, e.phase, e.detail)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	ring := filepath.Join(dir, "golden-obs-leaf2-flightrec")
	got, err := os.ReadFile(ring)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("ring is %d bytes, golden %d, or they differ", len(got), len(want))
	}

	// The golden file, read as a previous run's ring: the newest eight events.
	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "golden-obs-leaf2-flightrec"), want, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err = openRecorder(2, opts(dir), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var wantEvents []Event
	for i, e := range goldenRecords[len(goldenRecords)-8:] {
		seq := uint64(len(goldenRecords) - 8 + i)
		wantEvents = append(wantEvents, Event{Seq: seq, UnixMicros: base + 250*int64(seq+1), Kind: e.kind,
			Phase: e.phase[:min(len(e.phase), slotPhaseMax)], Detail: e.detail[:min(len(e.detail), slotDetailMax)]})
	}
	if prev := r.Previous(); !reflect.DeepEqual(prev, wantEvents) {
		t.Errorf("previous events:\ngot  %+v\nwant %+v", prev, wantEvents)
	}
}
