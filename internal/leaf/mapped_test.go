package leaf

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"scuba/internal/column"
	"scuba/internal/disk"
	"scuba/internal/table"
)

// A crash start serves each store image through a read-only mapping of its
// file (disk.Store.LoadImage). These tests read the process's mappings off
// /proc/self/maps, where an unlinked file's mapping still shows.

// mappings counts this process's mappings of files whose path has prefix.
func mappings(t *testing.T, prefix string) int {
	t.Helper()
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/self/maps; other builds read images into the heap")
	}
	raw, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range strings.Split(string(raw), "\n") {
		if i := strings.IndexByte(line, '/'); i >= 0 && strings.HasPrefix(line[i:], prefix) {
			n++
		}
	}
	return n
}

// imagePaths lists a table's image files in leaf 0's store, in row order.
func imagePaths(t *testing.T, e env, name string) []string {
	t.Helper()
	s, err := disk.NewStore(e.diskDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	images, _, err := s.Images(name)
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, len(images))
	for i, im := range images {
		paths[i] = filepath.Join(s.Dir(), disk.EncodeTableName(name), im.Name)
	}
	return paths
}

// crashWithBlocks seals n blocks of 100 rows into "events", the i'th at
// time 1000+9000i, persists them and abandons the leaf.
func crashWithBlocks(t *testing.T, cfg Config, n int) {
	t.Helper()
	old := startLeaf(t, cfg)
	for b := 0; b < n; b++ {
		ingest(t, old, "events", 100, int64(1000+9000*b))
		if err := old.SealAll(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := old.SyncToDisk(); err != nil {
		t.Fatal(err)
	}
}

// TestRetentionUnlinksAPinnedImage: retention drops a block a running scan
// has pinned — Table.Expire takes it out of the table, Store.DropBelow
// unlinks its image — and the scan still reads it whole, from the mapping,
// which goes with the scan's Release, not with the block's residency.
func TestRetentionUnlinksAPinnedImage(t *testing.T) {
	e := newEnv(t)
	cfg := e.config(0)
	cfg.Table = table.Options{MaxAgeSeconds: 100}
	crashWithBlocks(t, cfg, 2)
	nu := startLeaf(t, cfg)
	if rec := nu.Recovery(); rec.Path != RecoveryDisk || rec.ServedFromShm != 0 {
		t.Fatalf("recovery = %+v, want disk with nothing served from shm", rec)
	}
	paths := imagePaths(t, e, "events")
	if len(paths) != 2 || mappings(t, paths[0]) != 1 || mappings(t, paths[1]) != 1 {
		t.Fatalf("images %v: want two, each mapped once", paths)
	}
	var sum int64
	err := nu.Table("events").ScanView(0, 1<<40, func(v table.View) error {
		if n, err := nu.ExpireAll(5000); n != 1 || err != nil {
			t.Fatalf("ExpireAll = %d, %v; want the older block", n, err)
		}
		if _, err := os.Stat(paths[0]); !os.IsNotExist(err) {
			t.Errorf("the expired block's image is still there: %v", err)
		}
		if mappings(t, paths[0]) != 1 {
			t.Fatal("the expired block's image was unmapped under the scan that pins it")
		}
		for _, rb := range v.Blocks {
			c, err := rb.DecodeColumn("latency")
			if err != nil {
				return err
			}
			for _, x := range c.(*column.Int64Column).Values {
				sum += x
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum != 2*4950 {
		t.Errorf("the scan summed %d, want %d", sum, 2*4950)
	}
	if n := mappings(t, paths[0]); n != 0 {
		t.Errorf("the expired image is still mapped %d times after the scan", n)
	}
	if n := mappings(t, paths[1]); n != 1 {
		t.Errorf("the retained image is mapped %d times, want 1", n)
	}
	if got := countRows(t, nu, "events"); got != 100 {
		t.Errorf("count = %v, want 100", got)
	}
}

// TestDamagedImageIsUnmappedAndCounted: an image whose column fails its
// checksum is unmapped at the load and its block counted dropped; the other
// images serve, mapped.
func TestDamagedImageIsUnmappedAndCounted(t *testing.T) {
	e := newEnv(t)
	crashWithBlocks(t, e.config(0), 3)
	paths := imagePaths(t, e, "events")
	raw, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01 // the last column's checksum
	if err := os.WriteFile(paths[1], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	nu := startLeaf(t, e.config(0))
	rec := nu.Recovery()
	if rec.Path != RecoveryDisk || len(rec.PerTablePath) != 1 {
		t.Fatalf("recovery = %+v, want disk", rec)
	}
	if tr := rec.PerTablePath[0]; tr.BlocksDropped != 1 || tr.RowsDropped != 100 || !strings.Contains(tr.Reason, filepath.Base(paths[1])) {
		t.Errorf("%+v: want one block of 100 rows dropped, naming %s", tr, filepath.Base(paths[1]))
	}
	if n := mappings(t, paths[1]); n != 0 {
		t.Errorf("the damaged image is mapped %d times", n)
	}
	if n := mappings(t, paths[0]); n != 1 {
		t.Errorf("an intact image is mapped %d times, want once", n)
	}
	if got := countRows(t, nu, "events"); got != 200 {
		t.Errorf("count = %v, want 200", got)
	}
}

// TestWALCrashStartOverMappedImages: a crash start replays the log's tail on
// top of mapped images, and a later Shutdown copies those blocks out to shm
// from the mapping and unmaps them; the next start serves the same answers
// from shm.
func TestWALCrashStartOverMappedImages(t *testing.T) {
	e := newWALEnv(t)
	old := startLeaf(t, e.config(0))
	ingest(t, old, "events", 3000, 1000)
	if err := old.SealAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := old.SyncToDisk(); err != nil {
		t.Fatal(err)
	}
	ingest(t, old, "events", 700, 5000)
	want := groupedResult(t, old, "events")

	l := startLeaf(t, e.config(0))
	if rec := l.Recovery(); rec.Path != RecoveryWAL || rec.SnapshotBlocks != 1 || rec.WALRowsReplayed != 700 || rec.ServedFromShm != 0 {
		t.Fatalf("recovery = %+v, want wal over one image, 700 rows replayed", rec)
	}
	storeDir := l.store.Dir()
	if n := mappings(t, storeDir); n != 1 {
		t.Fatalf("%d store images mapped, want the one loaded", n)
	}
	if got := groupedResult(t, l, "events"); !reflect.DeepEqual(got, want) {
		t.Fatalf("after the crash start:\n got %+v\nwant %+v", got, want)
	}
	if _, err := l.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if n := mappings(t, storeDir); n != 0 {
		t.Errorf("%d store images still mapped after the shutdown copied them out", n)
	}
	nu := startLeaf(t, e.config(0))
	if p := nu.Recovery().Path; p != RecoveryMemory {
		t.Fatalf("recovery after the shutdown = %v, want memory", p)
	}
	if got := groupedResult(t, nu, "events"); !reflect.DeepEqual(got, want) {
		t.Errorf("after the shm restart:\n got %+v\nwant %+v", got, want)
	}
}
