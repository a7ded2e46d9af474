package leaf

// The persister's races: a block goes to the store when it seals, on a
// goroutine of its own, beside ingest, expiry and crashes.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"scuba/internal/fault"
	"scuba/internal/obs"
	"scuba/internal/wal"
)

// ingestBatches adds n batches of size rows to the table, times from start on.
func ingestBatches(t *testing.T, l *Leaf, name string, n, size int, start int64) {
	t.Helper()
	for i := 0; i < n; i++ {
		ingest(t, l, name, size, start+int64(i*size))
	}
}

// holdPersist delays the next image write by d, so that the persist behind
// the next seal is in flight for that long.
func holdPersist(t *testing.T, d time.Duration) {
	t.Cleanup(fault.Reset)
	fault.Arm(fault.Point{Site: fault.SiteSnapWrite, Action: fault.ActDelay, Delay: d, Count: 1})
}

// eventually waits for cond, failing the test after five seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func persistInFlight(t *testing.T) {
	t.Helper()
	eventually(t, "the persist behind the seal", func() bool { return fault.Hits(fault.SiteSnapWrite) > 0 })
}

// TestCrashBetweenSealAndPersist: a crash while the persist behind a seal is
// still writing the image loses no acked row. The log is truncated only
// behind a durable watermark, so the successor replays every row the image
// would have held.
func TestCrashBetweenSealAndPersist(t *testing.T) {
	e := newWALEnv(t)
	old := startLeaf(t, e.config(0))
	holdPersist(t, 500*time.Millisecond)
	ingestBatches(t, old, "events", 7, 10000, 1000) // the 7th batch seals rows [0, 65536)
	persistInFlight(t)
	old.WAL().Close() //nolint:errcheck // the crash: the leaf is abandoned, its persist still running

	l := startLeaf(t, e.config(0))
	if rec := l.Recovery(); rec.Path != RecoveryWAL || rec.SnapshotBlocks != 0 || rec.WALRowsReplayed != 70000 {
		t.Fatalf("recovery = %+v, want wal replaying all 70000 rows", rec)
	}
	if got := countRows(t, l, "events"); got != 70000 {
		t.Fatalf("rows = %v, want 70000", got)
	}
}

// TestExpiryBesidePersistNeverResurrects: retention drops a block while the
// persist behind its seal is still writing its image. Expiry's DropBelow
// waits that persist out, so the image it wrote goes too, and a crash does
// not bring the expired rows back.
func TestExpiryBesidePersistNeverResurrects(t *testing.T) {
	e := newWALEnv(t)
	const now = 100_000
	cfg := e.config(0)
	cfg.Table.MaxAgeSeconds = 1000
	cfg.Clock = func() int64 { return now }
	l := startLeaf(t, cfg)
	holdPersist(t, 500*time.Millisecond)
	ingestBatches(t, l, "events", 7, 10000, 1000) // block [0, 65536) is long expired
	persistInFlight(t)
	if n, err := l.ExpireAll(now); err != nil || n != 1 {
		t.Fatalf("ExpireAll dropped %d blocks (%v), want the sealed one", n, err)
	}

	nu := startLeaf(t, cfg)
	if got := countRows(t, nu, "events"); got != 70000-65536 {
		t.Fatalf("rows after the crash = %v, want the %d unexpired", got, 70000-65536)
	}
}

// TestAbandonedPersistCannotTruncateTheSuccessor: an in-process crash drops
// the leaf but not its persist, which finishes while the next incarnation is
// replaying the same log. A closed log refuses Truncate, so the successor
// reads every segment it listed and replays its full tail.
func TestAbandonedPersistCannotTruncateTheSuccessor(t *testing.T) {
	e := newWALEnv(t)
	old := startLeaf(t, e.config(0))
	holdPersist(t, 200*time.Millisecond)
	ingestBatches(t, old, "events", 7, 10000, 1000)
	persistInFlight(t)
	if err := old.WAL().Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := old.WAL().Truncate("events", 1<<40); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("Truncate after Close = %v, want wal.ErrClosed", err)
	}
	// The successor lists the segments, then waits at the first one past the
	// moment the abandoned persist truncates behind its image.
	fault.Arm(fault.Point{Site: fault.SiteWALReplay, Action: fault.ActDelay, Delay: 600 * time.Millisecond, Count: 1})
	l := startLeaf(t, e.config(0))
	if rec := l.Recovery(); rec.Path != RecoveryWAL || rec.WALRowsReplayed != 70000 {
		t.Fatalf("recovery = %+v, want wal replaying the full 70000-row tail", rec)
	}
}

// logStarts lists the first row of each of a table's log segments.
func logStarts(t *testing.T, e walEnv, name string) []int64 {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(e.walDir, "leaf0", name))
	if err != nil {
		t.Fatal(err)
	}
	var out []int64
	for _, ent := range ents {
		var seq int
		var start int64
		if n, _ := fmt.Sscanf(ent.Name(), "wal-%d-%d.log", &seq, &start); n == 2 {
			out = append(out, start)
		}
	}
	return out
}

// TestPersistAtSealTruncatesTheLog: the log rotates before the batch that
// seals a block, so once the persist behind the seal ends the log holds only
// that straddling batch and the tail, and a crash replays less than a block
// per table.
func TestPersistAtSealTruncatesTheLog(t *testing.T) {
	e := newWALEnv(t)
	old := startLeaf(t, e.config(0))
	const batch, batches = 10000, 14 // seals at rows 65536 and 131072 (batch 14), a tail of 8928
	tables := []string{"errors", "events"}
	for _, name := range tables {
		ingestBatches(t, old, name, batches, batch, 1000)
	}
	for _, name := range tables {
		storeTiles(t, old, name)
		for _, start := range logStarts(t, e, name) {
			if start < 131072-batch {
				t.Errorf("%s: log segment from row %d is left behind the seal at 131072", name, start)
			}
		}
	}

	l := startLeaf(t, e.config(0))
	rec := l.Recovery()
	if rec.Path != RecoveryWAL || rec.SnapshotBlocks != 4 || rec.WALRowsReplayed != 2*(batches*batch-131072) {
		t.Fatalf("recovery = %+v, want wal with 4 images and an 8928-row tail per table", rec)
	}
}

// TestFailedPersistIsRetriedByTheNextSeal: a persist that fails is not
// dropped. It is a flight-recorder fail event naming the table, the log
// keeps its rows meanwhile, and the persist behind the next seal writes both
// blocks.
func TestFailedPersistIsRetriedByTheNextSeal(t *testing.T) {
	e := newWALEnv(t)
	cfg := e.config(0)
	cfg.Obs, _ = newObserver(t, e.env, 0)
	old := startLeaf(t, cfg)
	t.Cleanup(fault.Reset)
	if err := fault.ArmSpec(fault.SiteSnapWrite + "=error;count=1"); err != nil {
		t.Fatal(err)
	}
	ingestBatches(t, old, "events", 7, 10000, 1000)
	eventually(t, "the failed persist's event", func() bool {
		for _, ev := range cfg.Obs.Recorder().Events() {
			if ev.Kind == obs.EventFail && ev.Phase == obs.PhaseTablePersist+":events" {
				return true
			}
		}
		return false
	})
	ingestBatches(t, old, "events", 7, 10000, 71000) // the second seal, at row 131072
	eventually(t, "both images", func() bool {
		images, _, err := old.store.Images("events")
		return err == nil && len(images) == 2
	})

	l := startLeaf(t, e.config(0))
	if rec := l.Recovery(); rec.Path != RecoveryWAL || rec.SnapshotBlocks != 2 || rec.WALRowsReplayed != 140000-131072 {
		t.Fatalf("recovery = %+v, want wal with 2 images and the tail", rec)
	}
	if got := countRows(t, l, "events"); got != 140000 {
		t.Fatalf("rows = %v, want 140000", got)
	}
}

// TestShutdownPersistFailureKeepsUnpersistedBlocks: a shutdown persists the
// block its seal made beside the copy-out, and here that persist fails. The
// copy-out must not have taken the block from the table first: the shutdown
// fails before the valid bit, its failure path writes the block, and the
// next start, from the store, holds every row.
func TestShutdownPersistFailureKeepsUnpersistedBlocks(t *testing.T) {
	e := newEnv(t)
	l := startLeaf(t, e.config(0))
	ingest(t, l, "events", 400, 1000)
	if err := l.SealAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.SyncToDisk(); err != nil {
		t.Fatal(err)
	}
	ingest(t, l, "events", 300, 2000) // the tail the shutdown seals
	t.Cleanup(fault.Reset)
	if err := fault.ArmSpec(fault.SiteSnapWrite + "=error;count=1"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Shutdown(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("shutdown = %v, want the persist's %v", err, fault.ErrInjected)
	}
	fault.Reset()
	nu := startLeaf(t, e.config(0))
	if rec := nu.Recovery(); rec.Path != RecoveryDisk || rec.SnapshotBlocks != 2 {
		t.Fatalf("recovery = %+v, want disk with both blocks' images", rec)
	}
	if got := countRows(t, nu, "events"); got != 700 {
		t.Fatalf("rows = %v, want 700", got)
	}
}
