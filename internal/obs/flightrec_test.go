package obs

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
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
		Capacity:  8,
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
	r1, err := OpenFlightRecorder(0, testOpts(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	r1.Record(EventNote, "process.start", "")
	r1.Record(EventBegin, "restart.copy_out", "")
	r1.Record(EventBegin, "copy-out:service_logs", "")
	r1.Record(EventFail, "copy-out:service_logs", "block 3: injected fault")
	// No Close: the "process" is killed here. The mmap'ed tmpfs file keeps
	// the bytes regardless.

	r2, err := OpenFlightRecorder(0, testOpts(t, dir))
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
	r1, err := OpenFlightRecorder(0, testOpts(t, dir)) // capacity 8
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		r1.Record(EventNote, "phase", fmt.Sprintf("event %d", i))
	}
	if got := len(r1.Events()); got != 8 {
		t.Fatalf("current events = %d, want capacity 8", got)
	}

	r2, err := OpenFlightRecorder(0, testOpts(t, dir))
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
	r1, err := OpenFlightRecorder(3, testOpts(t, dir))
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

	r2, err := OpenFlightRecorder(3, testOpts(t, dir))
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
	r1, err := OpenFlightRecorder(0, testOpts(t, dir))
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
	r2, err := OpenFlightRecorder(0, testOpts(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if prev := r2.Previous(); prev != nil {
		t.Errorf("previous = %+v, want nil on version skew", prev)
	}
}

func TestNoPreviousRun(t *testing.T) {
	r, err := OpenFlightRecorder(0, testOpts(t, t.TempDir()))
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
	opts := testOpts(t, t.TempDir())
	opts.Capacity = 64
	r, err := OpenFlightRecorder(0, opts)
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
