package leaf

import (
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"scuba/internal/query"
	"scuba/internal/rowblock"
	"scuba/internal/table"
)

// driftFingerprint answers a grouped multi-aggregate query over the drifting
// schema (a column missing from many rows, one that shows up late, a string
// set filter) as one canonical string.
func driftFingerprint(t *testing.T, l *Leaf) string {
	t.Helper()
	return fingerprint(t, func(q *query.Query) (*query.Result, error) { return l.Query(q) })
}

// fingerprint is driftFingerprint over whatever answers the queries: a leaf,
// or the reference executor over the rows a leaf is supposed to hold.
func fingerprint(t *testing.T, answer func(*query.Query) (*query.Result, error)) string {
	t.Helper()
	var out []string
	for _, q := range []*query.Query{
		{Table: "events", From: 0, To: 1 << 40, GroupBy: []string{"service"},
			Aggregations: []query.Aggregation{{Op: query.AggCount}, {Op: query.AggSum, Column: "seq"}, {Op: query.AggAvg, Column: "ratio"}}},
		{Table: "events", From: 0, To: 1 << 40, GroupBy: []string{"late"},
			Filters:      []query.Filter{{Column: "tags", Op: query.OpContains, Str: "prod"}},
			Aggregations: []query.Aggregation{{Op: query.AggCount}, {Op: query.AggMax, Column: "seq"}}},
	} {
		res, err := answer(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res.Rows(q))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(b))
	}
	return strings.Join(out, "\n")
}

// dirFiles maps every regular file under root (by relative path) to its
// bytes.
func dirFiles(t *testing.T, root string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || !info.Mode().IsRegular() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		out[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func dirBytes(t *testing.T, root string) int64 {
	var n int64
	for _, data := range dirFiles(t, root) {
		n += int64(len(data))
	}
	return n
}

// sourceHistory is the acked history the recovery-source tests bring back: a
// drifting schema, a block boundary in the middle of a batch, a prefix
// expired by retention, an unsealed tail. It leaves rows [65536, 110100) of
// 110100 acked: block 0 expired, block 1 sealed and persisted, the rest acked
// after the last pass. The config needs sourceClock and sourceRetention.
func sourceHistory(t *testing.T, cfg Config) *Leaf {
	const now = 1700002400 // cutoff now-1000 falls between block 0's and block 1's newest row
	l := startLeaf(t, cfg)
	rows := sourceRows()
	add := func(n int) {
		if err := l.AddRows("events", rows[:n]); err != nil {
			t.Fatal(err)
		}
		rows = rows[n:]
	}
	add(40000)
	add(40000) // crosses the 65536-row block boundary mid-batch
	if err := l.SealAll(); err != nil {
		t.Fatal(err)
	}
	storeTiles(t, l, "events")
	if n, err := l.ExpireAll(now); err != nil || n != 1 {
		t.Fatalf("ExpireAll dropped %d blocks (%v), want the first", n, err)
	}
	add(30000) // the "late" column shows up past row 70000
	add(100)
	return l
}

// storeTiles runs the SyncToDisk barrier and asserts that the store's images
// then tile the table's sealed blocks, one image per block, row range for
// row range — whichever persist wrote them.
func storeTiles(t *testing.T, l *Leaf, name string) {
	t.Helper()
	if _, err := l.SyncToDisk(); err != nil {
		t.Fatal(err)
	}
	images, _, err := l.store.Images(name)
	if err != nil {
		t.Fatal(err)
	}
	tbl := l.Table(name)
	blocks := tbl.Blocks()
	if len(images) != len(blocks) {
		t.Fatalf("%s: %d images for %d sealed blocks", name, len(images), len(blocks))
	}
	start := tbl.FirstRow()
	for i, im := range images {
		if im.Start != start || im.Rows != blocks[i].Rows() {
			t.Fatalf("%s: image %d holds rows [%d, %d), block %d rows from %d", name, i, im.Start, im.End(), blocks[i].Rows(), start)
		}
		start = im.End()
	}
}

// sourceRows are the 110100 rows sourceHistory acks, in order; the history
// leaves rows[65536:] alive.
func sourceRows() []rowblock.Row { return driftRows(rand.New(rand.NewSource(11)), 110100, 0) }

func sourceClock() int64 { return 1700009999 } // block images carry the creation time

var sourceRetention = table.Options{MaxAgeSeconds: 1000}

// recoverySources are the sources the recovery loop can take a table from.
var recoverySources = []struct {
	name string
	wal  bool
	// handOver ends the old process (nil = crash) and tunes the new one.
	handOver func(t *testing.T, old *Leaf, cfg *Config)
	wantPath RecoveryPath
	// adopted: the shutdown persisted everything and the restart must not
	// write one image byte.
	adopted bool
}{
	{name: "shm copy", wal: true, wantPath: RecoveryMemory, adopted: true,
		handOver: func(t *testing.T, old *Leaf, cfg *Config) {
			if _, err := old.Shutdown(); err != nil {
				t.Fatal(err)
			}
		}},
	{name: "shm view", wal: true, wantPath: RecoveryShmView, adopted: true,
		handOver: func(t *testing.T, old *Leaf, cfg *Config) {
			if _, err := old.Shutdown(); err != nil {
				t.Fatal(err)
			}
			cfg.InstantOn = true
		}},
	{name: "images + log tail", wal: true, wantPath: RecoveryWAL},
	{name: "images only", wantPath: RecoveryDisk, adopted: true,
		handOver: func(t *testing.T, old *Leaf, cfg *Config) {
			// No log: what a crash keeps is what the last pass persisted.
			if err := old.SealAll(); err != nil {
				t.Fatal(err)
			}
			if _, err := old.SyncToDisk(); err != nil {
				t.Fatal(err)
			}
		}},
}

// TestRecoverySourceEquivalence runs sourceHistory and brings it back from
// each source the recovery loop can take a table from. Whatever the source,
// the leaf must answer queries as the reference executor answers them over
// the rows the history left alive — not merely as the other sources do: a
// scan bug agrees with itself — hold the same sealed images and Stats, and
// leave the same image directory after its next persist pass.
func TestRecoverySourceEquivalence(t *testing.T) {
	type picture struct {
		answers string
		images  [][]byte
		stats   Stats
		store   map[string][]byte
	}
	alive := sourceRows()[65536:]
	want := fingerprint(t, func(q *query.Query) (*query.Result, error) { return query.Reference(alive, q) })
	var first *picture
	for _, src := range recoverySources {
		t.Run(src.name, func(t *testing.T) {
			e := newWALEnv(t)
			cfg := e.env.config(0)
			if src.wal {
				cfg = e.config(0)
			}
			cfg.Clock, cfg.Table = sourceClock, sourceRetention
			old := sourceHistory(t, cfg)
			if src.handOver != nil {
				src.handOver(t, old, &cfg)
			}
			before := dirFiles(t, e.diskDir)

			l := startLeaf(t, cfg)
			defer l.stopPromoter()
			rec := l.Recovery()
			if rec.Path != src.wantPath {
				t.Fatalf("recovery path = %v, want %v (%+v)", rec.Path, src.wantPath, rec)
			}
			for _, tr := range rec.PerTablePath {
				if tr.Reason != "" {
					t.Errorf("table %s recovered around a fault: %s", tr.Table, tr.Reason)
				}
			}
			if tbl := l.Table("events"); tbl.FirstRow() != 65536 || tbl.NextRow() != 110100 {
				t.Fatalf("rows [%d, %d), want [65536, 110100)", tbl.FirstRow(), tbl.NextRow())
			}
			got := picture{answers: driftFingerprint(t, l)}
			if src.wantPath == RecoveryShmView {
				waitPromoted(t, l)
				if again := driftFingerprint(t, l); again != got.answers {
					t.Errorf("answers changed across promotion")
				}
			}
			got.images = sealedImages(t, l)
			got.stats = l.Stats()
			written, err := l.SyncToDisk()
			if err != nil {
				t.Fatal(err)
			}
			got.store = dirFiles(t, e.diskDir)
			if src.adopted && (written != 0 || !reflect.DeepEqual(got.store, before)) {
				t.Errorf("restart rewrote images: pass wrote %d, store changed = %v", written, !reflect.DeepEqual(got.store, before))
			}
			if len(got.store) != 3 { // two images and the watermark
				t.Errorf("store holds %d files, want 3: block 0's image must be gone", len(got.store))
			}
			if got.answers != want {
				t.Errorf("query results differ from the reference executor's over rows [65536, 110100):\n got %s\nwant %s", got.answers, want)
			}
			if first == nil {
				first = &got
				return
			}
			sameImages(t, "sealed blocks", got.images, first.images)
			if got.stats.Rows != first.stats.Rows || got.stats.Bytes != first.stats.Bytes {
				t.Errorf("Stats = %+v, first source %+v", got.stats, first.stats)
			}
			if !reflect.DeepEqual(got.store, first.store) {
				t.Errorf("image directory differs from the first source's: %d files vs %d", len(got.store), len(first.store))
			}
		})
	}
}

// TestCleanRestartAdoptsImages: after a clean shm restart the images already
// in the store tile the restored blocks, so they are adopted — same files,
// not one byte rewritten — and only the log starts over. When they do not
// tile, the table's images are dropped and the next pass rewrites them.
func TestCleanRestartAdoptsImages(t *testing.T) {
	e := newWALEnv(t)
	old := startLeaf(t, e.config(0))
	for i := 0; i < 3; i++ {
		ingest(t, old, "events", 500, int64(1000+500*i))
		if err := old.SealAll(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := old.Shutdown(); err != nil {
		t.Fatal(err)
	}
	stat := func() map[string]os.FileInfo {
		out := make(map[string]os.FileInfo)
		for name := range dirFiles(t, e.diskDir) {
			fi, err := os.Stat(filepath.Join(e.diskDir, name))
			if err != nil {
				t.Fatal(err)
			}
			out[name] = fi
		}
		return out
	}
	before := stat()

	l := startLeaf(t, e.config(0))
	if p := l.Recovery().Path; p != RecoveryMemory {
		t.Fatalf("recovery path = %v", p)
	}
	if n, err := l.SyncToDisk(); err != nil || n != 0 {
		t.Fatalf("persist pass after a clean restart wrote %d images (%v), want 0", n, err)
	}
	after := stat()
	if len(after) != len(before) {
		t.Fatalf("store has %d files, had %d", len(after), len(before))
	}
	for name, fi := range before {
		// A rewrite goes through a temp file and a rename: a new inode.
		if !os.SameFile(fi, after[name]) || !fi.ModTime().Equal(after[name].ModTime()) {
			t.Errorf("%s was rewritten by the restart", name)
		}
	}
	if logs := dirFiles(t, e.walDir); len(logs) != 0 {
		t.Errorf("log not reset by the clean restart: %d files", len(logs))
	}
	// New rows continue the adopted numbering; a crash finds images and log.
	ingest(t, l, "events", 70, 9000)
	crashed := startLeaf(t, e.config(0))
	if rec := crashed.Recovery(); rec.Path != RecoveryWAL || rec.SnapshotBlocks != 3 || rec.WALRowsReplayed != 70 {
		t.Fatalf("crash after adoption: %+v", rec)
	}

	// Lose an image: the next clean restart cannot adopt and starts over.
	if _, err := crashed.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for name := range dirFiles(t, e.diskDir) {
		if strings.Contains(name, "block-0000000000000500-") {
			if err := os.Remove(filepath.Join(e.diskDir, name)); err != nil {
				t.Fatal(err)
			}
		}
	}
	reset := startLeaf(t, e.config(0))
	if p := reset.Recovery().Path; p != RecoveryMemory {
		t.Fatalf("recovery path = %v", p)
	}
	// Start dropped the images and handed the table to the persister at
	// ALIVE: after the barrier all four are written again, and nothing else.
	storeTiles(t, reset, "events")
	if n := len(dirFiles(t, e.diskDir)); n != 5 {
		t.Fatalf("store holds %d files after the reset, want 4 images and the watermark", n)
	}
	if got := countRows(t, startLeaf(t, e.config(0)), "events"); got != 1570 {
		t.Fatalf("rows after reset and crash = %v, want 1570", got)
	}
}

// TestDamagedImageCostsOneBlock: one flipped byte in one image file loses
// that block and nothing else — Start succeeds, the table's Reason names the
// file, and the log tail past the watermark still replays.
func TestDamagedImageCostsOneBlock(t *testing.T) {
	e := newWALEnv(t)
	old := startLeaf(t, e.config(0))
	ingest(t, old, "other", 100, 1000)
	for i := 0; i < 3; i++ {
		ingest(t, old, "events", 400, int64(1000+400*i))
		if err := old.SealAll(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := old.SyncToDisk(); err != nil {
		t.Fatal(err)
	}
	ingest(t, old, "events", 55, 5000)
	var damaged string
	for name, data := range dirFiles(t, e.diskDir) {
		if strings.Contains(name, "block-0000000000000400-") {
			damaged = filepath.Base(name)
			data[len(data)/2] ^= 0xff
			if err := os.WriteFile(filepath.Join(e.diskDir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if damaged == "" {
		t.Fatal("no image of rows 400-800 to damage")
	}

	l := startLeaf(t, e.config(0))
	rec := l.Recovery()
	if rec.Path != RecoveryWAL || rec.WALRowsReplayed != 55 || rec.SnapshotBlocks != 3 {
		t.Fatalf("recovery = %+v, want wal with 3 images and a 55-row tail", rec)
	}
	for _, tr := range rec.PerTablePath {
		switch tr.Table {
		case "events":
			if !strings.Contains(tr.Reason, damaged) {
				t.Errorf("events Reason %q does not name %s", tr.Reason, damaged)
			}
		default:
			if tr.Reason != "" {
				t.Errorf("%s: unexpected Reason %q", tr.Table, tr.Reason)
			}
		}
	}
	if got := countRows(t, l, "events"); got != 1200-400+55 {
		t.Fatalf("events rows = %v, want every row but the damaged block's", got)
	}
	if got := countRows(t, l, "other"); got != 100 {
		t.Fatalf("other rows = %v, want 100", got)
	}
	if src := l.tableRecoverySource("events"); src != RecoveryQuarantined {
		t.Errorf("recovery source = %q, want %q", src, RecoveryQuarantined)
	}
}

// TestOneFormatOneWrite: with the WAL on, what a leaf keeps on disk after a
// persist pass is exactly one image per sealed block, a watermark per table,
// and the log — no second copy of any block under either root, and nothing in
// a retired format.
func TestOneFormatOneWrite(t *testing.T) {
	e := newWALEnv(t)
	l := startLeaf(t, e.config(0))
	for i := 0; i < 3; i++ {
		ingest(t, l, "events", 800, int64(1000+800*i))
		ingest(t, l, "errors", 300, int64(1000+300*i))
		if err := l.SealAll(); err != nil {
			t.Fatal(err)
		}
		for _, pass := range []func() (int, error){l.SnapshotPass, l.SyncToDisk} {
			if _, err := pass(); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest(t, l, "events", 40, 9000) // the log tail

	var want, imageBytes int64
	for _, imgs := range tableImages(t, l) {
		for _, img := range imgs {
			imageBytes += int64(len(img))
		}
		want += 16 // the table's watermark
	}
	want += imageBytes
	var images, logs int
	for _, root := range []string{e.diskDir, e.walDir} {
		for name, data := range dirFiles(t, root) {
			switch base := filepath.Base(name); {
			case strings.HasPrefix(base, "block-") && strings.HasSuffix(base, ".rbk") && root == e.diskDir:
				images++
			case base == "watermark" && root == e.diskDir:
			case strings.HasPrefix(base, "wal-") && strings.HasSuffix(base, ".log") && root == e.walDir:
				logs++
				want += int64(len(data))
			default:
				t.Errorf("unexpected file %s under %s", name, root)
			}
		}
	}
	if images != 6 || logs == 0 {
		t.Errorf("%d images and %d log segments, want 6 and at least 1", images, logs)
	}
	if got := dirBytes(t, e.diskDir) + dirBytes(t, e.walDir); got != want {
		t.Errorf("%d bytes on disk, want images + watermarks + log = %d (images %d)", got, want, imageBytes)
	}
}

// TestSizeRetentionReachesTheStore: a table capped by MaxBytes drops its
// oldest blocks from the heap; the store must drop the same images, or a
// crash resurrects rows retention already dropped and the backup grows
// without bound.
func TestSizeRetentionReachesTheStore(t *testing.T) {
	e := newEnv(t)
	cfg := e.config(0)
	cfg.Table = table.Options{MaxBytes: 1500}
	l := startLeaf(t, cfg)
	var peak int64
	for round := 0; round < 10; round++ {
		ingest(t, l, "events", 1000, int64(1000*round))
		if err := l.SealAll(); err != nil {
			t.Fatal(err)
		}
		if _, err := l.SyncToDisk(); err != nil {
			t.Fatal(err)
		}
		if _, err := l.ExpireAll(0); err != nil {
			t.Fatal(err)
		}
		held := int64(16) // the watermark
		for _, img := range tableImages(t, l)["events"] {
			held += int64(len(img))
		}
		stored := dirBytes(t, e.diskDir)
		if stored != held {
			t.Fatalf("round %d: store holds %d bytes, the table's blocks image to %d", round, stored, held)
		}
		peak = max(peak, stored)
	}
	if first := int64(len(tableImages(t, l)["events"][0])); peak > cfg.Table.MaxBytes+5*first {
		t.Errorf("store peaked at %d bytes under a %d-byte cap", peak, cfg.Table.MaxBytes)
	}
	held := countRows(t, l, "events")
	if held == 0 || held == 10000 {
		t.Fatalf("held %v rows: the cap must bite without emptying the table", held)
	}
	// Crash.
	if got := countRows(t, startLeaf(t, cfg), "events"); got != held {
		t.Fatalf("recovered %v rows, held %v before the crash", got, held)
	}
}

// TestWALWithoutDiskRootRejected: the log is truncated behind the store's
// images, so a WAL with nowhere to put images cannot work and is refused.
func TestWALWithoutDiskRootRejected(t *testing.T) {
	e := newWALEnv(t)
	cfg := e.config(0)
	cfg.DiskRoot = ""
	if _, err := New(cfg); !errors.Is(err, ErrWALNeedsDiskRoot) {
		t.Fatalf("New = %v, want ErrWALNeedsDiskRoot", err)
	}
}
