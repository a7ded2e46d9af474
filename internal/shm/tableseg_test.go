package shm

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"testing"

	"scuba/internal/rowblock"
)

func buildBlocks(t *testing.T, nblocks, rowsPerBlock int) []*rowblock.RowBlock {
	t.Helper()
	out := make([]*rowblock.RowBlock, nblocks)
	for bidx := range out {
		b := rowblock.NewBuilder(int64(1000 + bidx))
		for i := 0; i < rowsPerBlock; i++ {
			err := b.AddRow(rowblock.Row{
				Time: int64(bidx*rowsPerBlock + i),
				Cols: map[string]rowblock.Value{
					"host": rowblock.StringValue(fmt.Sprintf("host-%d", i%7)),
					"lat":  rowblock.Int64Value(int64(i)),
				},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		rb, err := b.Seal()
		if err != nil {
			t.Fatal(err)
		}
		out[bidx] = rb
	}
	return out
}

// openView opens the named segment of table through the one reader.
func openView(t testing.TB, m *Manager, seg, table string) *MappedView {
	t.Helper()
	v, err := OpenTableSegmentView(m, SegmentInfo{Table: table, Segment: seg})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// clone is the move loop's clone step with nothing around it: a damaged
// block is the drain's error.
func clone(_ int, rb *rowblock.RowBlock) (*rowblock.RowBlock, error) { return rb.CloneToHeap() }

// drain moves v's blocks to the heap the way an eager start does, with no
// table around them: newest first, each cloned and then its residency ended,
// so the view cuts its tail behind it. It returns the clones in segment
// order. A clone's error is the drain's, and the blocks not yet moved leave
// with it.
func drain(v *MappedView, clone func(i int, rb *rowblock.RowBlock) (*rowblock.RowBlock, error)) ([]*rowblock.RowBlock, error) {
	blocks := v.Blocks()
	out := make([]*rowblock.RowBlock, len(blocks))
	for i := len(blocks) - 1; i >= 0; i-- {
		c, err := clone(i, blocks[i])
		if err != nil {
			rowblock.ReleaseSources(blocks[:i+1])
			return nil, err
		}
		out[i] = c
		rowblock.ReleaseSources(blocks[i : i+1])
	}
	return out, nil
}

// drainView drains v with the plain clone step.
func drainView(v *MappedView) ([]*rowblock.RowBlock, error) { return drain(v, clone) }

func TestTableSegmentRoundTrip(t *testing.T) {
	runBothModes(t, func(t *testing.T, noMmap bool) {
		m := newTestManager(t, 1, noMmap)
		blocks := buildBlocks(t, 4, 300)
		w, err := CreateTableSegment(m, "tbl-events", "events")
		if err != nil {
			t.Fatal(err)
		}
		for _, rb := range blocks {
			if err := w.WriteBlock(rb, 0, false); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Finish(); err != nil {
			t.Fatal(err)
		}

		v := openView(t, m, "tbl-events", "events")
		if len(v.Blocks()) != 4 {
			t.Errorf("blocks = %d", len(v.Blocks()))
		}
		restored, err := drainView(v)
		if err != nil {
			t.Fatal(err)
		}
		for i, rb := range restored {
			orig := blocks[i]
			if rb.Header() != orig.Header() || rb.Source() != nil {
				t.Errorf("block %d header mismatch or still shm-resident", i)
			}
			gotTimes, err := rb.Times(nil)
			if err != nil {
				t.Fatal(err)
			}
			wantTimes, _ := orig.Times(nil)
			if !reflect.DeepEqual(gotTimes, wantTimes) {
				t.Errorf("block %d times mismatch", i)
			}
		}
		if m.SegmentExists("tbl-events") {
			t.Error("segment not removed by the last release")
		}
	})
}

func TestWriteBlockReleasesHeapColumns(t *testing.T) {
	m := newTestManager(t, 1, false)
	blocks := buildBlocks(t, 1, 100)
	w, err := CreateTableSegment(m, "tbl-r", "r")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBlock(blocks[0], 0, true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < blocks[0].NumColumns(); i++ {
		if blocks[0].Column(i) != nil {
			t.Errorf("column %d not released after copy", i)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	// Released blocks still restore correctly from the segment.
	restored, err := drainView(openView(t, m, "tbl-r", "r"))
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 1 || restored[0].Rows() != 100 {
		t.Errorf("restored = %v", restored)
	}
}

func TestOpenTableSegmentRejectsCorruption(t *testing.T) {
	m := newTestManager(t, 1, false)
	blocks := buildBlocks(t, 2, 50)
	w, err := CreateTableSegment(m, "tbl-c", "c")
	if err != nil {
		t.Fatal(err)
	}
	for _, rb := range blocks {
		if err := w.WriteBlock(rb, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}

	col := openView(t, m, "tbl-c", "c").offsets[1] - 20
	corrupt := func(mut func([]byte)) error {
		raw, err := os.ReadFile(m.segmentPath("tbl-c"))
		if err != nil {
			t.Fatal(err)
		}
		mut(raw)
		if err := os.WriteFile(m.segmentPath("tbl-c"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		v, err := OpenTableSegmentView(m, SegmentInfo{Table: "c", Segment: "tbl-c"})
		if err != nil {
			return err
		}
		for _, rb := range v.Blocks() {
			err = errors.Join(err, rb.Verify())
			rb.Source().Release() // unmapped with the last; the file stays
		}
		return err
	}

	if err := corrupt(func(b []byte) { b[0] ^= 0xff }); err == nil {
		t.Error("bad magic accepted")
	}
	// Restore the magic, corrupt the version.
	if err := corrupt(func(b []byte) { b[0] ^= 0xff; b[4] ^= 0xff }); !errors.Is(err, ErrVersionSkew) {
		t.Errorf("version skew: %v", err)
	}
	// Fix version, corrupt a byte of the first block's last column, short of
	// its checksum: the block's first read must catch it.
	var dmg *rowblock.DamagedError
	if err := corrupt(func(b []byte) { b[4] ^= 0xff; b[col] ^= 0x01 }); !errors.As(err, &dmg) {
		t.Errorf("column corruption: %v", err)
	}
	// Undo that, damage the block count: the index CRC must catch it.
	if err := corrupt(func(b []byte) { b[col] ^= 0x01; b[24] ^= 0x01 }); !errors.Is(err, ErrSegCorrupt) {
		t.Errorf("block count corruption: %v", err)
	}
	// Undo that, damage the table name: no CRC of the segment covers it; it
	// is checked against the metadata's.
	if err := corrupt(func(b []byte) { b[24] ^= 0x01; b[segHeaderFixed] ^= 0x01 }); !errors.Is(err, ErrSegCorrupt) {
		t.Errorf("table name mismatch: %v", err)
	}
	if err := corrupt(func(b []byte) { b[segHeaderFixed] ^= 0x01 }); err != nil {
		t.Errorf("repaired segment: %v", err)
	}
}

func TestAbortLeavesRemovableSegment(t *testing.T) {
	m := newTestManager(t, 1, false)
	blocks := buildBlocks(t, 1, 10)
	w, err := CreateTableSegment(m, "tbl-a", "a")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBlock(blocks[0], 0, false); err != nil {
		t.Fatal(err)
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := m.RemoveSegment("tbl-a"); err != nil {
		t.Fatal(err)
	}
	if m.SegmentExists("tbl-a") {
		t.Error("segment still exists")
	}
}

func TestBytesCopiedAccounting(t *testing.T) {
	m := newTestManager(t, 1, false)
	blocks := buildBlocks(t, 2, 100)
	w, err := CreateTableSegment(m, "tbl-b", "b")
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, rb := range blocks {
		for i := 0; i < rb.NumColumns(); i++ {
			want += int64(rb.Column(i).Size())
		}
		if err := w.WriteBlock(rb, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	if w.BytesCopied != want {
		t.Errorf("BytesCopied = %d, want %d", w.BytesCopied, want)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
}
