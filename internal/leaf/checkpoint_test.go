package leaf

// A sync checkpoints each table's unsealed tail as an image, so a crash
// start replays only the log written since.

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"scuba/internal/disk"
	"scuba/internal/fault"
	"scuba/internal/query"
	"scuba/internal/rowblock"
)

// TestCrashAtEachCheckpointStep crashes a leaf at each step of a sync's tail
// checkpoint — before the image, after it, after the watermark, after the
// log truncation — with rows acked past the checkpoint. Each successor must
// hold every acked row and answer as the reference executor does over them,
// and replay only what no image it found holds.
func TestCrashAtEachCheckpointStep(t *testing.T) {
	rows := driftRows(rand.New(rand.NewSource(66)), 100000, 0)
	want := fingerprint(t, func(q *query.Query) (*query.Result, error) { return query.Reference(rows, q) })
	for _, step := range []struct {
		name string
		// fault is armed for the sync; nil lets it finish.
		fault *fault.Point
		// rewind puts the watermark back as it was before the sync: the
		// crash came between the image's rename and the watermark's.
		rewind bool
		// replayed is what the successor replays past the images it found.
		replayed int64
		images   int
	}{
		{name: "before the image", fault: &fault.Point{Site: fault.SiteSnapWrite, Action: fault.ActError, Count: 1}, replayed: 100000 - 65536, images: 1},
		{name: "after the image", fault: &fault.Point{Site: fault.SiteWALTruncate, Action: fault.ActError, Count: 1}, rewind: true, replayed: 20000, images: 2},
		{name: "after the watermark", fault: &fault.Point{Site: fault.SiteWALTruncate, Action: fault.ActError, Count: 1}, replayed: 20000, images: 2},
		{name: "after the truncate", replayed: 20000, images: 2},
	} {
		t.Run(step.name, func(t *testing.T) {
			e := newWALEnv(t)
			old := startLeaf(t, e.config(0))
			add := func(rows []rowblock.Row) {
				if err := old.AddRows("events", rows); err != nil {
					t.Fatal(err)
				}
			}
			add(rows[:80000])
			sealedTiles(t, old, "events") // block [0, 65536) is in the store; the sync finds only the tail
			watermark := filepath.Join(old.store.Dir(), disk.EncodeTableName("events"), "watermark")
			before, err := os.ReadFile(watermark)
			if err != nil {
				t.Fatal(err)
			}
			if step.fault != nil {
				t.Cleanup(fault.Reset)
				fault.Arm(*step.fault)
			}
			if _, err := old.SyncToDisk(); (err != nil) != (step.fault != nil) {
				t.Fatalf("SyncToDisk = %v with fault %v", err, step.fault)
			}
			fault.Reset()
			segments := logStarts(t, e, "events")
			if step.rewind {
				if err := os.WriteFile(watermark, before, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			add(rows[80000:])
			old.WAL().Close() //nolint:errcheck // the crash

			l := startLeaf(t, e.config(0))
			rec := l.Recovery()
			if rec.Path != RecoveryWAL || rec.WALRowsReplayed != step.replayed || rec.SnapshotBlocks != step.images {
				t.Fatalf("recovery = %+v, want wal over %d images replaying %d rows", rec, step.images, step.replayed)
			}
			if got := driftFingerprint(t, l); got != want {
				t.Errorf("answers differ from the reference executor's over the 100000 acked rows:\n got %s\nwant %s", got, want)
			}
			// Only a sync that got past its watermark truncates the log.
			truncated := true
			for _, start := range segments {
				truncated = truncated && start >= 80000
			}
			if truncated != (step.fault == nil) {
				t.Errorf("log segments started at %v after the sync", segments)
			}
		})
	}
}
