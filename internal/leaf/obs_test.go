package leaf

// Observability of the restart path: every span of the restart ledger must
// land as a registry timer named after its phase and as flight-recorder
// events, and — the scenario the recorder exists for — a crash during
// copy-out must be diagnosable by the next process from the surviving ring.

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"scuba/internal/fault"
	"scuba/internal/metrics"
	"scuba/internal/obs"
)

func newObserver(t *testing.T, e env, id int) (*obs.Observer, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	rec, err := obs.OpenFlightRecorder(id, obs.RecorderOptions{Dir: e.shmDir, Namespace: "test"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rec.Close() })
	return obs.New(reg, rec), reg
}

func TestRestartPhaseSpans(t *testing.T) {
	e := newEnv(t)

	cfg := e.config(0)
	ob, oldReg := newObserver(t, e, 0)
	cfg.Obs = ob
	old := startLeaf(t, cfg)
	ingest(t, old, "events", 300, 0)
	ingest(t, old, "errors", 100, 0)
	if _, err := old.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{obs.PhaseCopyOut, obs.PhaseCommit} {
		if st := oldReg.Timer(name).Stats(); st.Count != 1 {
			t.Errorf("timer %s count = %d, want 1", name, st.Count)
		}
	}
	for _, name := range []string{obs.PhaseTableSeal, obs.PhaseTablePersist, obs.PhaseTableCopyOut} {
		if st := oldReg.Timer(name).Stats(); st.Count != 2 {
			t.Errorf("timer %s count = %d, want one per table", name, st.Count)
		}
	}
	cfg.Obs.Recorder().Close()

	cfg2 := e.config(0)
	var newReg *metrics.Registry
	cfg2.Obs, newReg = newObserver(t, e, 0)
	nu := startLeaf(t, cfg2)
	if rec := nu.Recovery(); rec.Path != RecoveryMemory {
		t.Fatalf("recovery = %+v, want memory", rec)
	}
	for _, name := range []string{obs.PhaseMap, obs.PhaseCopyIn} {
		if st := newReg.Timer(name).Stats(); st.Count != 1 {
			t.Errorf("timer %s count = %d, want 1", name, st.Count)
		}
	}
	if st := newReg.Timer(obs.PhaseDiskRecovery).Stats(); st.Count != 0 {
		t.Errorf("disk recovery ran on the memory path: %+v", st)
	}
	for _, name := range []string{obs.PhaseTableView, obs.PhaseTableCopyIn, obs.PhaseTableAdopt} {
		if st := newReg.Timer(name).Stats(); st.Count != 2 {
			t.Errorf("timer %s count = %d, want one per table", name, st.Count)
		}
	}
	// The whole lifecycle shows up in the registry's Prometheus exposition.
	text := newReg.Prometheus()
	for _, want := range []string{"scuba_restart_map_seconds_count 1", "scuba_restart_copy_in_seconds_count 1",
		"scuba_restart_table_copy_in_seconds_count 2", "scuba_restart_alive_seconds_count 1"} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	// And in the flight recorder: per-table begin/end events inside the span.
	events := cfg2.Obs.Recorder().Events()
	var sawTable bool
	for _, ev := range events {
		if ev.Phase == obs.PhaseTableCopyIn+":events" && ev.Kind == obs.EventEnd {
			sawTable = true
		}
	}
	if !sawTable {
		t.Errorf("no %s:events end event in %+v", obs.PhaseTableCopyIn, events)
	}
	// The new process holds both halves under the old process's trace ID.
	trace := nu.RestartTrace()
	down, up := trace.Half(obs.HalfShutdown), trace.Half(obs.HalfStart)
	if len(down) == 0 || len(up) == 0 || down[0].TraceID != up[0].TraceID {
		t.Errorf("halves not joined: %d shutdown spans, %d start spans, trace %+v", len(down), len(up), trace)
	}
}

// TestCrashDuringCopyOutDiagnosis is the acceptance scenario: a copy worker
// faults mid-block during shutdown, the process "dies" (recorder never
// closed), and the next process reads the previous run's last recorded phase
// and the disk-fallback reason from the surviving ring.
func TestCrashDuringCopyOutDiagnosis(t *testing.T) {
	e := newEnv(t)
	cfg := e.config(0)
	setProcs(t, 2)
	reg := metrics.NewRegistry()
	rec, err := obs.OpenFlightRecorder(0, obs.RecorderOptions{Dir: e.shmDir, Namespace: "test"})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Obs = obs.New(reg, rec)
	l := startLeaf(t, cfg)
	for i := 0; i < 4; i++ {
		ingest(t, l, fmt.Sprintf("t%d", i), 120, int64(1000*i))
	}
	boom := errors.New("injected mid-block fault")
	t.Cleanup(fault.Reset)
	fault.Arm(fault.Point{Site: fault.SiteShmCopyOut, Action: fault.ActError, Err: boom, After: 2, Count: 1})
	_, err = l.Shutdown()
	fault.Reset()
	if !errors.Is(err, boom) {
		t.Fatalf("shutdown err = %v, want injected fault", err)
	}
	// Crash: no Close. The ring lives in its own shm segment under the
	// "<ns>-obs" namespace, which the leaf's RemoveAll sweep does not touch.

	rec2, err := obs.OpenFlightRecorder(0, obs.RecorderOptions{Dir: e.shmDir, Namespace: "test"})
	if err != nil {
		t.Fatal(err)
	}
	defer rec2.Close()
	prev := rec2.Previous()
	if len(prev) == 0 {
		t.Fatal("no previous-run events survived the failed shutdown")
	}
	var newestFail obs.Event
	for _, ev := range prev {
		if ev.Kind == obs.EventFail {
			newestFail = ev
		}
	}
	if newestFail.Kind != obs.EventFail {
		t.Fatalf("previous run recorded no failure: %+v", prev)
	}
	// Whichever table's block met the fault: its copy-out failed with the reason.
	var failed string
	for _, ev := range prev {
		if table, ok := strings.CutPrefix(ev.Phase, obs.PhaseTableCopyOut+":"); ok && ev.Kind == obs.EventFail &&
			strings.Contains(ev.Detail, "injected mid-block fault") {
			failed = table
		}
	}
	if failed == "" {
		t.Fatalf("no %s:<table> fail event with the fault reason in %+v", obs.PhaseTableCopyOut, prev)
	}
	if !strings.HasPrefix(newestFail.Phase, obs.PhaseTableCopyOut+":") && newestFail.Phase != obs.PhaseCopyOut {
		t.Errorf("failure phase = %q, want a table's copy-out (or the whole-leaf span)", newestFail.Phase)
	}
	// The begin reached the ring before the work it covered: every span that
	// failed or finished had begun, and the begins come first.
	began := map[string]bool{}
	for _, ev := range prev {
		switch ev.Kind {
		case obs.EventBegin:
			began[ev.Phase] = true
		case obs.EventEnd, obs.EventFail:
			if !began[ev.Phase] {
				t.Errorf("%s of %s is in the ring without a begin before it", ev.Kind, ev.Phase)
			}
		}
	}

	// The next process disk-recovers and records why.
	cfg2 := e.config(0)
	reg2 := metrics.NewRegistry()
	cfg2.Obs = obs.New(reg2, rec2)
	nu := startLeaf(t, cfg2)
	if rec := nu.Recovery(); rec.Path != RecoveryDisk {
		t.Fatalf("recovery = %+v, want disk", rec)
	}
	if st := reg2.Timer(obs.PhaseDiskRecovery).Stats(); st.Count != 1 {
		t.Errorf("disk recovery timer count = %d, want 1", st.Count)
	}
	// The failed shutdown and the disk recovery it caused are one trace.
	var failedOut, loaded bool
	for _, sp := range nu.RestartTrace() {
		failedOut = failedOut || (sp.Half == obs.HalfShutdown && sp.Phase == obs.PhaseTableCopyOut && sp.Table == failed && sp.Err != "")
		loaded = loaded || (sp.Half == obs.HalfStart && sp.Phase == obs.PhaseTableLoad)
	}
	if !failedOut || !loaded {
		t.Errorf("trace does not join the failed copy-out (%v) to the store load (%v): %+v", failedOut, loaded, nu.RestartTrace())
	}
	var sawReason bool
	for _, ev := range rec2.Events() {
		if ev.Kind == obs.EventNote && ev.Phase == obs.PhaseMap &&
			strings.Contains(ev.Detail, "disk path") {
			sawReason = true
		}
	}
	if !sawReason {
		t.Errorf("no disk-path note in current events %+v", rec2.Events())
	}
}
