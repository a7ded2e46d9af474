package shm

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"scuba/internal/rowblock"
)

func writeViewSegment(t *testing.T, m *Manager, seg, table string, nblocks int) {
	t.Helper()
	writeSegment(t, m, seg, table, buildBlocks(t, nblocks, 200))
}

func TestMappedViewServesAndDrains(t *testing.T) {
	runBothModes(t, func(t *testing.T, noMmap bool) {
		m := newTestManager(t, 1, noMmap)
		writeViewSegment(t, m, "tbl-events.g7", "events", 3)

		v := openView(t, m, "tbl-events.g7", "events")
		if v.SegmentName() != "tbl-events.g7" {
			t.Fatalf("view segment = %q", v.SegmentName())
		}
		if len(v.Blocks()) != 3 {
			t.Fatalf("blocks = %d", len(v.Blocks()))
		}
		if v.Refs() != 3 {
			t.Fatalf("initial refs = %d, want one per block", v.Refs())
		}
		rows := 0
		for _, rb := range v.Blocks() {
			if rb.Source() != v {
				t.Fatal("block does not carry the view as its source")
			}
			rows += rb.Rows()
		}
		if rows != 600 {
			t.Fatalf("rows = %d", rows)
		}

		// A scan pin keeps the mapping after the last residency ends; the
		// file goes with that residency.
		if !v.Retain() {
			t.Fatal("Retain failed on live view")
		}
		rowblock.ReleaseSources(v.Blocks())
		if v.Refs() != 1 {
			t.Fatalf("refs after residency drain = %d", v.Refs())
		}
		if _, err := os.Stat(m.segmentPath("tbl-events.g7")); !os.IsNotExist(err) {
			t.Fatalf("segment file survived the last residency: %v", err)
		}
		for _, rb := range v.Blocks() {
			rb.AppendImage(nil) // reads every byte: still mapped while pinned
		}
		v.Release()
		if v.Refs() != 0 {
			t.Fatalf("refs = %d after final release", v.Refs())
		}
		// Retain cannot resurrect a drained view.
		if v.Retain() {
			t.Fatal("Retain succeeded on drained view")
		}
	})
}

func TestMappedViewValidation(t *testing.T) {
	m := newTestManager(t, 1, false)

	// Corrupt block index: flip one byte of the block's prefix CRC, the
	// index CRC must reject the view.
	writeViewSegment(t, m, "tbl-c", "c", 1)
	path := m.segmentPath("tbl-c")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-2] ^= 0xff
	if err := os.WriteFile(path, b, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTableSegmentView(m, SegmentInfo{Table: "c", Segment: "tbl-c"}); !errors.Is(err, ErrSegCorrupt) {
		t.Fatalf("corrupt view open = %v, want ErrSegCorrupt", err)
	}
	// A failed open leaves the file where it was.
	if !m.SegmentExists("tbl-c") {
		t.Fatal("failed open removed the segment file")
	}

	// Missing segment.
	if _, err := OpenTableSegmentView(m, SegmentInfo{Table: "missing", Segment: "tbl-missing"}); !errors.Is(err, ErrSegmentGone) {
		t.Fatalf("missing view open = %v, want ErrSegmentGone", err)
	}

	// The metadata names another table than the segment does.
	writeViewSegment(t, m, "tbl-n", "n", 1)
	if _, err := OpenTableSegmentView(m, SegmentInfo{Table: "other", Segment: "tbl-n"}); !errors.Is(err, ErrSegCorrupt) {
		t.Fatalf("misnamed view open = %v, want ErrSegCorrupt", err)
	}

	// Zero-block segment: nothing to serve, so the open deletes it.
	writeViewSegment(t, m, "tbl-empty", "empty", 0)
	v := openView(t, m, "tbl-empty", "empty")
	if len(v.Blocks()) != 0 || v.Refs() != 0 || v.Retain() {
		t.Fatalf("empty view: %d blocks, %d refs", len(v.Blocks()), v.Refs())
	}
	if m.SegmentExists("tbl-empty") {
		t.Fatal("empty segment file left behind")
	}
}

// TestEvictionHandsTheTailBack is the §4.4 flat footprint, kept by the view:
// a residency that ends while every block after it has left, with nothing
// pinned, cuts the file back to that block's image, and the blocks below stay
// readable; a pin held across an eviction leaves the file whole, the evicted
// block included, and the next unpinned eviction takes the whole run that
// left since; the last residency unlinks the file.
func TestEvictionHandsTheTailBack(t *testing.T) {
	runBothModes(t, func(t *testing.T, noMmap bool) {
		m := newTestManager(t, 1, noMmap)
		blocks := buildBlocks(t, 5, 1000)
		writeSegment(t, m, "tbl-t", "t", blocks)
		v := openView(t, m, "tbl-t", "t")
		vb := v.Blocks()
		path := m.segmentPath("tbl-t")
		size := func() int64 {
			t.Helper()
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			return fi.Size()
		}
		readable := func(from, to int) {
			t.Helper()
			for i := from; i < to; i++ {
				if !bytes.Equal(vb[i].AppendImage(nil), blocks[i].AppendImage(nil)) {
					t.Errorf("block %d reads back otherwise", i)
				}
			}
		}
		evict := func(i int, want int64, why string) {
			t.Helper()
			rowblock.ReleaseSources(vb[i : i+1])
			if got := size(); got != want {
				// Fatal: reading a block past a cut would fault the test binary.
				t.Fatalf("after block %d left (%s): file is %d bytes, want %d", i, why, got, want)
			}
		}
		whole := size()
		evict(0, whole, "blocks after it are still held")
		evict(4, v.offsets[4], "newest, nothing pinned")
		readable(1, 4)
		if !v.Retain() {
			t.Fatal("Retain failed on a live view")
		}
		evict(3, v.offsets[4], "a reader pins the view")
		readable(1, 4)
		v.Release()
		evict(2, v.offsets[2], "pin gone: blocks 2 and 3 go together")
		readable(1, 2)
		rowblock.ReleaseSources(vb[1:2])
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("segment file survived the last residency: %v", err)
		}
		if v.Refs() != 0 {
			t.Errorf("refs = %d after every residency ended", v.Refs())
		}
	})
}
