package leaf

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scuba/internal/fault"
	"scuba/internal/shm"
	"scuba/internal/table"
)

// A block keeps its global row index through every restart: the store's
// image names, the log's records and the shm segment's block index each
// carry it, and nothing renumbers a table. Each history below lost acked rows
// when a restore numbered a table otherwise.

// rowIndexConfig is the leaf every history runs: a log, and retention that
// keeps rows younger than 1000 s.
func rowIndexConfig(e walEnv) Config {
	cfg := e.config(0)
	cfg.Table = table.Options{MaxAgeSeconds: 1000}
	return cfg
}

// threePersistedBlocks ingests three 500-row blocks, times 1000-2499, and
// persists them.
func threePersistedBlocks(t *testing.T, cfg Config) *Leaf {
	t.Helper()
	l := startLeaf(t, cfg)
	for i := 0; i < 3; i++ {
		ingest(t, l, "events", 500, int64(1000+500*i))
		if err := l.SealAll(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.SyncToDisk(); err != nil {
		t.Fatal(err)
	}
	return l
}

// killedExpiryShutdown persists three blocks, expires the oldest from the
// table while its image stays in the store — as when a shutdown kills the
// expiry before DropBelow — and shuts down cleanly to shm.
func killedExpiryShutdown(t *testing.T, cfg Config) {
	t.Helper()
	old := threePersistedBlocks(t, cfg)
	if n, err := old.Table("events").Expire(2600); err != nil || n != 1 {
		t.Fatalf("Expire dropped %d blocks (%v), want the oldest", n, err)
	}
	if _, err := old.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// crashHolds acks 300 more rows on l, crash-starts a successor and checks it
// answers the 1,300 rows l held, every one of the 300 replayed from the log.
func crashHolds(t *testing.T, l *Leaf, cfg Config) {
	t.Helper()
	ingest(t, l, "events", 300, 3000)
	if got := countRows(t, l, "events"); got != 1300 {
		t.Fatalf("the leaf holds %v rows, want 1300", got)
	}
	crashed := startLeaf(t, cfg)
	rec := crashed.Recovery()
	if got := countRows(t, crashed, "events"); got != 1300 || rec.WALRowsReplayed != 300 {
		t.Fatalf("crash start answers %v rows with %d replayed (%+v), want 1300 with 300", got, rec.WALRowsReplayed, rec.PerTablePath)
	}
	if tr := rec.PerTablePath[0]; tr.Reason != "" {
		t.Errorf("crash start recovered around a fault: %s", tr.Reason)
	}
}

// TestInstantOnRestoreKeepsSegmentStarts: a clean restart whose store still
// holds the image of a block expiry dropped restores the table's blocks at
// the rows the segment records and deletes that image, so the log reset
// behind them numbers new rows as the store does, and a crash while the
// blocks are still served from shm brings back exactly the acked rows.
func TestInstantOnRestoreKeepsSegmentStarts(t *testing.T) {
	t.Cleanup(fault.Reset)
	e := newWALEnv(t)
	cfg := rowIndexConfig(e)
	killedExpiryShutdown(t, cfg)

	if err := fault.ArmSpec("shm.copy_in=delay:20ms"); err != nil {
		t.Fatal(err)
	}
	cfg.InstantOn = true
	nu := startLeaf(t, cfg)
	nu.stopPromoter()
	fault.Reset()
	if tbl := nu.Table("events"); tbl.FirstRow() != 500 || tbl.NextRow() != 1500 || tbl.ForeignBlocks() == 0 {
		t.Errorf("restored rows [%d, %d) with %d blocks in shm, want [500, 1500) still served from shm", tbl.FirstRow(), tbl.NextRow(), tbl.ForeignBlocks())
	}
	if images, _, err := nu.store.Images("events"); err != nil || len(images) != 2 || images[0].Start != 500 {
		t.Errorf("store images %v (%v), want the two restored blocks'", images, err)
	}
	cfg.InstantOn = false
	crashHolds(t, nu, cfg)
}

// TestEagerRestoreWritesNoImage: the same history through an eager start,
// with every image write failing from the start on. The restored blocks'
// images are adopted, so no persist has anything to write or delete, and the
// crash start still finds every acked row.
func TestEagerRestoreWritesNoImage(t *testing.T) {
	t.Cleanup(fault.Reset)
	e := newWALEnv(t)
	cfg := rowIndexConfig(e)
	killedExpiryShutdown(t, cfg)

	if err := fault.ArmSpec("snap.write=error"); err != nil {
		t.Fatal(err)
	}
	nu := startLeaf(t, cfg)
	_, serr := nu.SyncToDisk()
	crashHolds(t, nu, cfg)
	if serr != nil || fault.Hits(fault.SiteSnapWrite) != 0 {
		t.Errorf("a restart whose images tile its blocks wrote images: %v, %d writes", serr, fault.Hits(fault.SiteSnapWrite))
	}
}

// TestCrashStartNumbersFromTheWatermark: a crash start whose newest image is
// lost numbers the log tail it replays from the watermark, as the log does,
// not from the last image's end, so the table and its log agree on every
// row index from then on and a second crash loses nothing.
func TestCrashStartNumbersFromTheWatermark(t *testing.T) {
	e := newWALEnv(t)
	cfg := rowIndexConfig(e)
	old := threePersistedBlocks(t, cfg)
	ingest(t, old, "events", 200, 2500)
	removeImage(t, e, "block-0000000000001000-")

	crashed := startLeaf(t, cfg)
	if next, cursor := crashed.Table("events").NextRow(), crashed.WAL().Cursor("events"); next != 1700 || cursor != 1700 {
		t.Errorf("after the crash NextRow is %d and the log's cursor %d, want both 1700", next, cursor)
	}
	for _, n := range []int{100, 400} {
		ingest(t, crashed, "events", n, 2700)
		if err := crashed.SealAll(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := crashed.SyncToDisk(); err != nil {
		t.Fatal(err)
	}
	held := countRows(t, crashed, "events")
	if held != 1700 {
		t.Fatalf("the leaf holds %v rows, want the 1700 it was given", held)
	}
	if got := countRows(t, startLeaf(t, cfg), "events"); got != held {
		t.Fatalf("second crash start answers %v rows, the leaf held %v", got, held)
	}
}

// TestOverlappingSegmentStartsQuarantine: a segment whose recorded starts
// overlap — well-formed under every checksum — is never served: its table is
// quarantined to the store with the reason, and no image is deleted.
func TestOverlappingSegmentStartsQuarantine(t *testing.T) {
	e := newEnv(t)
	old := startLeaf(t, e.config(0))
	for i := 0; i < 3; i++ {
		ingest(t, old, "events", 400, int64(1000+400*i))
		if err := old.SealAll(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := old.Shutdown(); err != nil {
		t.Fatal(err)
	}
	images, _, err := old.store.Images("events")
	if err != nil || len(images) != 3 {
		t.Fatalf("images after the shutdown: %v, %v", images, err)
	}
	m := shm.NewManager(0, e.config(0).Shm)
	md, err := m.ReadMetadata()
	if err != nil || len(md.Segments) != 1 {
		t.Fatalf("metadata %+v, %v", md, err)
	}
	w, err := shm.CreateTableSegment(m, md.Segments[0].Segment, "events")
	if err != nil {
		t.Fatal(err)
	}
	for i, start := range []int64{0, 0, 400, 800} { // the first block twice
		rb, err := old.store.LoadImage("events", images[max(0, i-1)])
		if err == nil {
			err = w.WriteBlock(rb, start, false)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}

	nu := startLeaf(t, e.config(0))
	tr := nu.Recovery().PerTablePath[0]
	if tr.Path != RecoveryDisk || !strings.Contains(tr.Reason, "overlaps") {
		t.Fatalf("recovery = %+v, want the table quarantined to the store for its overlapping starts", tr)
	}
	if got := countRows(t, nu, "events"); got != 1200 {
		t.Fatalf("rows = %v, want the store's 1200", got)
	}
}

// removeImage deletes the store image whose file name begins with prefix.
func removeImage(t *testing.T, e walEnv, prefix string) {
	t.Helper()
	for name := range dirFiles(t, e.diskDir) {
		if strings.HasPrefix(filepath.Base(name), prefix) {
			if err := os.Remove(filepath.Join(e.diskDir, name)); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("no image %s*", prefix)
}
