package shm

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"scuba/internal/fault"
	"scuba/internal/layout"
	"scuba/internal/rowblock"
)

// writeSegment backs blocks into a finished segment and returns where its
// images start, then where its block index does and ends.
func writeSegment(t testing.TB, m *Manager, segName, tableName string, blocks []*rowblock.RowBlock) (offsets []int64, end int64) {
	t.Helper()
	w, err := CreateTableSegment(m, segName, tableName)
	if err != nil {
		t.Fatal(err)
	}
	for _, rb := range blocks {
		offsets = append(offsets, w.pos)
		if err := w.WriteBlock(rb, false); err != nil {
			t.Fatal(err)
		}
	}
	offsets = append(offsets, w.pos)
	end = w.pos + int64(len(w.index))
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	return offsets, end
}

// restoreBothWays puts raw in place as the named segment twice and reads it the
// two ways a restart does: served in place, each block's first read its
// Verify (instant-on), and drained, each clone checking its copy (eager).
// Each way returns its blocks as heap copies — nil for a block its first read
// found damaged, which the leaf replaces — or the open's error.
func restoreBothWays(t testing.TB, m *Manager, seg, table string, raw []byte) (served, drained []*rowblock.RowBlock, serveErr, drainErr error) {
	t.Helper()
	put := func() {
		if err := os.WriteFile(m.segmentPath(seg), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	damaged := func(err error) bool {
		var dmg *rowblock.DamagedError
		return errors.As(err, &dmg)
	}
	put()
	if v, err := OpenTableSegmentView(m, SegmentInfo{Table: table, Segment: seg}); err != nil {
		serveErr = err
	} else {
		for _, rb := range v.Blocks() {
			var c *rowblock.RowBlock
			if err := rb.Verify(); err == nil {
				c, err = rb.CloneToHeap()
				if err != nil {
					t.Fatalf("clone of a checked block: %v", err)
				}
			} else if !damaged(err) {
				t.Fatalf("first read: %v, want a DamagedError", err)
			}
			served = append(served, c)
		}
		rowblock.ReleaseSources(v.Blocks())
	}
	put()
	if v, err := OpenTableSegmentView(m, SegmentInfo{Table: table, Segment: seg}); err != nil {
		drainErr = err
	} else {
		drained, drainErr = drain(v, func(i int, rb *rowblock.RowBlock) (*rowblock.RowBlock, error) {
			c, err := clone(i, rb)
			if damaged(err) {
				return nil, nil
			}
			return c, err
		})
	}
	return served, drained, serveErr, drainErr
}

// lostBlocks is the blocks restored lost: nil, or the index of every block
// that differs from its original.
func lostBlocks(t testing.TB, blocks, restored []*rowblock.RowBlock) []int {
	t.Helper()
	if len(restored) != len(blocks) {
		t.Fatalf("%d blocks restored of %d", len(restored), len(blocks))
	}
	var lost []int
	for i, rb := range restored {
		if rb == nil || rb.Header() != blocks[i].Header() || !bytes.Equal(rb.AppendImage(nil), blocks[i].AppendImage(nil)) {
			lost = append(lost, i)
		}
	}
	return lost
}

// TestEveryFlippedByteIsCaught: a flipped bit anywhere in a table segment is
// caught before any answer reads it — in the header's offsets and counts, the
// block index or an image prefix by the open, so the leaf quarantines the
// table to the store; in a column blob by the first read of exactly that
// block, so the leaf replaces that block alone — whether the blocks are served
// in place or drained.
func TestEveryFlippedByteIsCaught(t *testing.T) {
	m := newTestManager(t, 1, false)
	blocks := buildBlocks(t, 3, 200)
	offsets, end := writeSegment(t, m, "tbl-crc", "crc", blocks)
	raw, err := os.ReadFile(m.segmentPath("tbl-crc"))
	if err != nil {
		t.Fatal(err)
	}
	// The block a byte's flip costs, or -1 where it must fail the open.
	costs := func(off int64) int {
		for i, rb := range blocks {
			if prefixEnd := offsets[i] + int64(len(rb.ImagePrefix())); off >= prefixEnd && off < offsets[i+1] {
				return i
			}
		}
		return -1
	}
	offs := []int64{8, 16, 24, 28, offsets[0], offsets[1] - 1, offsets[3], end - 5, end - 1}
	for off := offsets[0]; off < end; off += (end - offsets[0]) / 41 {
		offs = append(offs, off)
	}
	for _, off := range offs {
		raw[off] ^= 0x40
		served, drained, serveErr, drainErr := restoreBothWays(t, m, "tbl-crc", "crc", raw)
		if want := costs(off); want < 0 {
			if serveErr == nil || drainErr == nil {
				t.Fatalf("flip at %d: opened (%v, %v), want an error", off, serveErr, drainErr)
			}
		} else {
			if serveErr != nil || drainErr != nil {
				t.Fatalf("flip at %d in block %d's columns: %v, %v", off, want, serveErr, drainErr)
			}
			for _, restored := range [][]*rowblock.RowBlock{served, drained} {
				if lost := lostBlocks(t, blocks, restored); len(lost) != 1 || lost[0] != want || restored[want] != nil {
					t.Fatalf("flip at %d in block %d's columns lost blocks %v", off, want, lost)
				}
			}
		}
		raw[off] ^= 0x40 // flip back: must validate again
		if served, drained, serveErr, drainErr = restoreBothWays(t, m, "tbl-crc", "crc", raw); serveErr != nil || drainErr != nil ||
			lostBlocks(t, blocks, served) != nil || lostBlocks(t, blocks, drained) != nil {
			t.Fatalf("restore flip at %d: %v, %v", off, serveErr, drainErr)
		}
	}
}

// FuzzSegmentCorruption checks that an arbitrary single-byte mutation
// anywhere in the segment file never yields silently wrong block data, served
// in place or drained: the open fails, or every block is identical to the
// original but at most one, which its first read reported damaged.
func FuzzSegmentCorruption(f *testing.F) {
	f.Add(uint32(0), byte(0xff))    // magic
	f.Add(uint32(4), byte(0x01))    // version
	f.Add(uint32(28), byte(0x80))   // index CRC field
	f.Add(uint32(40), byte(0xa5))   // first image prefix
	f.Add(uint32(999), byte(0x01))  // the block index: second image's offset
	f.Add(uint32(50), byte(0x00))   // no-op mutation must keep working
	f.Add(uint32(45), byte(0x7f))   // first image's size field
	f.Add(uint32(1510), byte(0x01)) // the first image's last column blob
	f.Add(uint32(24), byte(0x01))   // block count
	f.Add(uint32(994), byte(0x04))  // the block index: first image's prefix CRC
	f.Add(uint32(1006), byte(0x80)) // the block index: second image's prefix CRC
	f.Add(uint32(700), byte(0x20))  // the second image's columns: costs that block
	f.Fuzz(func(t *testing.T, off uint32, x byte) {
		m := newTestManager(t, 1, false)
		blocks := buildBlocks(t, 2, 50)
		writeSegment(t, m, "tbl-fz", "fz", blocks)
		raw, err := os.ReadFile(m.segmentPath("tbl-fz"))
		if err != nil {
			t.Fatal(err)
		}
		pos := int(off) % len(raw)
		raw[pos] ^= x

		served, drained, serveErr, drainErr := restoreBothWays(t, m, "tbl-fz", "fz", raw)
		for _, way := range []struct {
			name     string
			restored []*rowblock.RowBlock
			err      error
		}{{"served in place", served, serveErr}, {"drained", drained, drainErr}} {
			if way.err != nil {
				continue // detected (a CRC, structure, or the name check) — fine
			}
			if lost := lostBlocks(t, blocks, way.restored); len(lost) > 1 || len(lost) == 1 && way.restored[lost[0]] != nil {
				t.Fatalf("%s: mutation (%d, %#x) silently corrupted blocks %v", way.name, pos, x, lost)
			}
		}
	})
}

// TestFailedFinishLeavesWriterAborted: a Finish that fails — here on the
// footer write, with shm.copy_out armed past the block writes — has closed
// the file and left the writer aborted, so the Abort a failed shutdown calls
// on every writer is safe and the segment can be removed.
func TestFailedFinishLeavesWriterAborted(t *testing.T) {
	t.Cleanup(fault.Reset)
	fault.Reset()
	m := newTestManager(t, 1, false)
	blocks := buildBlocks(t, 2, 20)
	w, err := CreateTableSegment(m, "tbl-ff", "ff")
	if err != nil {
		t.Fatal(err)
	}
	fault.Arm(fault.Point{Site: fault.SiteShmCopyOut, Action: fault.ActError, After: len(blocks)})
	for _, rb := range blocks {
		if err := w.WriteBlock(rb, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Finish = %v, want ErrInjected", err)
	}
	fault.Reset()
	if err := w.f.Close(); !errors.Is(err, os.ErrClosed) {
		t.Errorf("the failed Finish left the file open (Close = %v)", err)
	}
	if err := w.Abort(); err != nil {
		t.Errorf("Abort after a failed Finish = %v", err)
	}
	if err := w.Finish(); !errors.Is(err, ErrClosed) {
		t.Errorf("Finish after a failed Finish = %v, want ErrClosed", err)
	}
	if err := w.WriteBlock(blocks[0], false); !errors.Is(err, ErrClosed) {
		t.Errorf("WriteBlock after a failed Finish = %v, want ErrClosed", err)
	}
	if err := m.RemoveSegment("tbl-ff"); err != nil || m.SegmentExists("tbl-ff") {
		t.Errorf("remove after a failed Finish: %v", err)
	}
}

func TestFaultSiteCopyOut(t *testing.T) {
	t.Cleanup(fault.Reset)
	fault.Reset()
	m := newTestManager(t, 1, false)
	blocks := buildBlocks(t, 1, 20)

	fault.Arm(fault.Point{Site: fault.SiteShmCopyOut, Action: fault.ActError})
	w, err := CreateTableSegment(m, "tbl-f1", "f1")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBlock(blocks[0], false); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("WriteBlock = %v, want ErrInjected", err)
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	fault.Reset()

	// Corrupt action: the damage lands after the CRCs are stamped, so the
	// segment finishes cleanly but fails the open or a block's first read.
	fault.Arm(fault.Point{Site: fault.SiteShmCopyOut, Action: fault.ActCorrupt})
	writeSegment(t, m, "tbl-f2", "f2", blocks)
	fault.Reset()
	raw, err := os.ReadFile(m.segmentPath("tbl-f2"))
	if err != nil {
		t.Fatal(err)
	}
	served, drained, serveErr, drainErr := restoreBothWays(t, m, "tbl-f2", "f2", raw)
	if serveErr == nil && lostBlocks(t, blocks, served) == nil {
		t.Fatal("the corrupted segment served every block")
	}
	if drainErr == nil && lostBlocks(t, blocks, drained) == nil {
		t.Fatal("the corrupted segment drained every block")
	}
}

// TestFaultSiteCopyIn: a block damaged on its way to the heap is the clone's
// check to catch — and only the armed hit's block fails. A drain whose clone
// returns that damage fails with it. (The site's error action is the leaf's:
// its clone step calls Inject; so is replacing the damaged block.)
func TestFaultSiteCopyIn(t *testing.T) {
	t.Cleanup(fault.Reset)
	fault.Reset()
	m := newTestManager(t, 1, false)
	blocks := buildBlocks(t, 2, 20)
	writeSegment(t, m, "tbl-f4", "f4", blocks)
	v := openView(t, m, "tbl-f4", "f4")

	fault.Arm(fault.Point{Site: fault.SiteShmCopyIn, Action: fault.ActCorrupt, Count: 1})
	if _, err := v.Blocks()[1].CloneToHeap(); !errors.Is(err, layout.ErrChecksum) {
		t.Fatalf("corrupted copy-in clone = %v, want %v", err, layout.ErrChecksum)
	}
	if fault.Hits(fault.SiteShmCopyIn) == 0 {
		t.Fatal("shm.copy_in never evaluated")
	}
	// The mapping itself is untouched: the same block clones cleanly now.
	if restored, err := drainView(v); err != nil || len(restored) != 2 {
		t.Fatalf("drain after the fault fired = %d blocks, %v", len(restored), err)
	}

	writeSegment(t, m, "tbl-f5", "f5", blocks)
	v = openView(t, m, "tbl-f5", "f5")
	fault.Arm(fault.Point{Site: fault.SiteShmCopyIn, Action: fault.ActCorrupt, Count: 1})
	if restored, err := drainView(v); !errors.Is(err, layout.ErrChecksum) || restored != nil {
		t.Fatalf("drain with a clone damaged = %d blocks, %v, want %v", len(restored), err, layout.ErrChecksum)
	}
	if m.SegmentExists("tbl-f5") {
		t.Error("the failed drain left its segment")
	}
}

func TestFaultSiteMetadataMapAndCommit(t *testing.T) {
	t.Cleanup(fault.Reset)
	fault.Reset()
	m := newTestManager(t, 1, false)
	md := &Metadata{Valid: true, Version: LayoutVersion, Created: 42}

	fault.Arm(fault.Point{Site: fault.SiteShmCommit, Action: fault.ActError})
	if err := m.WriteMetadata(md); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("WriteMetadata = %v, want ErrInjected", err)
	}
	fault.Reset()
	if err := m.WriteMetadata(md); err != nil {
		t.Fatal(err)
	}

	fault.Arm(fault.Point{Site: fault.SiteShmMap, Action: fault.ActError})
	if _, err := m.ReadMetadata(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("ReadMetadata = %v, want ErrInjected", err)
	}
	fault.Reset()
	got, err := m.ReadMetadata()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Valid || got.Created != 42 {
		t.Fatalf("metadata round trip = %+v", got)
	}
}
