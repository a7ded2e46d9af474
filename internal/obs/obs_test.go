package obs

import (
	"errors"
	"testing"

	"scuba/internal/metrics"
)

func TestSpanFeedsTimerAndRecorder(t *testing.T) {
	reg := metrics.NewRegistry()
	rec, err := OpenFlightRecorder(0, testOpts(t, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	r := New(reg, rec).Restart(HalfShutdown)

	sp := r.Begin(PhaseCopyOut, "", -1)
	if events := rec.Events(); len(events) != 1 || events[0].Kind != EventBegin {
		t.Fatalf("the begin event must be in the ring before the work it covers: %+v", events)
	}
	sp.End(nil)
	sp.End(nil) // idempotent

	if st := reg.Timer(PhaseCopyOut).Stats(); st.Count != 1 {
		t.Errorf("timer count = %d", st.Count)
	}
	events := rec.Events()
	if len(events) != 2 || events[0].Kind != EventBegin || events[1].Kind != EventEnd {
		t.Errorf("events = %+v", events)
	}
	if events[0].Phase != PhaseCopyOut {
		t.Errorf("phase = %q", events[0].Phase)
	}
	if got := r.Spans(); len(got) != 1 || got[0].Phase != PhaseCopyOut || got[0].TraceID != r.TraceID() {
		t.Errorf("ledger = %+v", got)
	}
}

func TestSpanFailure(t *testing.T) {
	reg := metrics.NewRegistry()
	rec, err := OpenFlightRecorder(0, testOpts(t, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	r := New(reg, rec).Restart(HalfStart)

	r.Begin(PhaseTableCopyIn, "events", 1).End(errors.New("segment gone"))

	// Failed phases still count toward the timer.
	if st := reg.Timer(PhaseTableCopyIn).Stats(); st.Count != 1 {
		t.Errorf("timer count = %d", st.Count)
	}
	if evs := rec.Events(); len(evs) == 0 || evs[len(evs)-1].Kind != EventFail ||
		evs[len(evs)-1].Phase != PhaseTableCopyIn+":events" {
		t.Errorf("recorded events = %+v, want the failure last", evs)
	}
	if got := r.Spans(); len(got) != 1 || got[0].Err != "segment gone" {
		t.Errorf("ledger = %+v", got)
	}
}

// A nil observer still keeps the ledger: the leaf reads RecoveryInfo off it
// whether or not anyone listens.
func TestNilObserverKeepsTheLedger(t *testing.T) {
	var o *Observer
	o.Event(EventNote, "x", "")
	r := o.Restart(HalfStart)
	sp := r.Begin(PhaseTableView, "t", 0)
	sp.Blocks, sp.Bytes = 3, 300
	sp.End(nil)
	sp.End(errors.New("still fine"))
	if o.Registry() != nil || o.Recorder() != nil {
		t.Error("nil observer leaked sinks")
	}
	if b, n := r.Spans().Moved(); b != 3 || n != 300 {
		t.Errorf("moved = %d blocks, %d bytes", b, n)
	}
	var none *Restart
	if none.Spans() != nil {
		t.Error("a nil ledger has spans")
	}
}

func TestObserverWithoutRecorder(t *testing.T) {
	reg := metrics.NewRegistry()
	New(reg, nil).Restart(HalfStart).Begin("phase.only_timer", "", -1).End(nil)
	if st := reg.Timer("phase.only_timer").Stats(); st.Count != 1 {
		t.Errorf("timer count = %d", st.Count)
	}
}
