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

// writeSegment backs blocks into a finished segment and returns its file
// contents plus the payload region [payloadStart, footerEnd).
func writeSegment(t testing.TB, m *Manager, segName, tableName string, blocks []*rowblock.RowBlock) (payloadStart, payloadEnd int64) {
	t.Helper()
	w, err := CreateTableSegment(m, segName, tableName)
	if err != nil {
		t.Fatal(err)
	}
	for _, rb := range blocks {
		if err := w.WriteBlock(rb, false); err != nil {
			t.Fatal(err)
		}
	}
	payloadStart = w.payloadStart
	payloadEnd = w.pos + int64(8*len(w.offsets))
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	return payloadStart, payloadEnd
}

// restoreBothWays puts raw in place as the named segment twice and reads it the
// two ways a restart does: opened verified, as a view to serve in place
// (instant-on), and opened for its structure alone and drained, the CRC
// checked over the clones (eager). It returns the blocks each way got, or the
// error that stopped it — the open's or the drain's.
func restoreBothWays(t testing.TB, m *Manager, seg, table string, raw []byte) (served, drained []*rowblock.RowBlock, serveErr, drainErr error) {
	t.Helper()
	put := func() {
		if err := os.WriteFile(m.segmentPath(seg), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	put()
	if v, err := OpenTableSegmentView(m, SegmentInfo{Table: table, Segment: seg}, true); err != nil {
		serveErr = err
	} else {
		// Heap copies to compare, then let the view go.
		for _, rb := range v.Blocks() {
			c, err := rb.CloneToHeap(true)
			if err != nil {
				t.Fatalf("clone of a verified view: %v", err)
			}
			served = append(served, c)
		}
		v.seg.Close()
	}
	put()
	if v, err := OpenTableSegmentView(m, SegmentInfo{Table: table, Segment: seg}, false); err != nil {
		drainErr = err
	} else {
		drained, drainErr = drainView(v)
	}
	return served, drained, serveErr, drainErr
}

// TestPayloadCRCCatchesFlippedBytes is the property the satellite task asks
// for: the metadata CRC already guards the metadata block, but a flipped bit
// anywhere in a table segment's row-block data (or footer) must be caught
// before any block is restored — by the open of a view that will be served in
// place, by the open or the drain of one that is drained — so the leaf can
// quarantine the table to disk recovery instead of installing silently wrong
// columns.
func TestPayloadCRCCatchesFlippedBytes(t *testing.T) {
	m := newTestManager(t, 1, false)
	blocks := buildBlocks(t, 3, 200)
	start, end := writeSegment(t, m, "tbl-crc", "crc", blocks)
	raw, err := os.ReadFile(m.segmentPath("tbl-crc"))
	if err != nil {
		t.Fatal(err)
	}

	// Sample positions across the whole payload + footer region, including
	// both boundaries.
	offs := []int64{start, start + 1, (start + end) / 2, end - 9, end - 1}
	step := (end - start) / 37
	if step < 1 {
		step = 1
	}
	for off := start; off < end; off += step {
		offs = append(offs, off)
	}
	for _, off := range offs {
		raw[off] ^= 0x40
		_, drained, serveErr, drainErr := restoreBothWays(t, m, "tbl-crc", "crc", raw)
		if !errors.Is(serveErr, ErrSegCorrupt) {
			t.Fatalf("flip at %d (payload [%d,%d)): verified open = %v, want ErrSegCorrupt", off, start, end, serveErr)
		}
		if drainErr == nil || drained != nil {
			t.Fatalf("flip at %d (payload [%d,%d)): the drain handed over %d blocks, %v", off, start, end, len(drained), drainErr)
		}
		raw[off] ^= 0x40 // flip back: must validate again
		if _, drained, serveErr, drainErr = restoreBothWays(t, m, "tbl-crc", "crc", raw); serveErr != nil || drainErr != nil || len(drained) != 3 {
			t.Fatalf("restore flip at %d: %v, %v", off, serveErr, drainErr)
		}
	}
}

// FuzzSegmentCorruption checks that an arbitrary single-byte mutation
// anywhere in the segment file never yields silently wrong block data, in
// either order of verification: the open fails, the drain fails, or every
// restored block is identical to the original.
func FuzzSegmentCorruption(f *testing.F) {
	f.Add(uint32(0), byte(0xff))    // magic
	f.Add(uint32(4), byte(0x01))    // version
	f.Add(uint32(28), byte(0x80))   // payload CRC field
	f.Add(uint32(40), byte(0xa5))   // payload
	f.Add(uint32(999), byte(0x01))  // deep payload / footer
	f.Add(uint32(50), byte(0x00))   // no-op mutation must keep working
	f.Add(uint32(45), byte(0x7f))   // first image's size field
	f.Add(uint32(1510), byte(0x01)) // an image's column offset table
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
				continue // detected (CRC, structure, or the name check) — fine
			}
			// Survived every check: the data must be exactly the original.
			if len(way.restored) != len(blocks) {
				t.Fatalf("%s: mutation (%d, %#x) silently dropped blocks: %d of %d", way.name, pos, x, len(way.restored), len(blocks))
			}
			for i, rb := range way.restored {
				if rb.Header() != blocks[i].Header() || !bytes.Equal(rb.AppendImage(nil), blocks[i].AppendImage(nil)) {
					t.Fatalf("%s: mutation (%d, %#x) silently corrupted block %d", way.name, pos, x, i)
				}
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

	// Corrupt action: the damage lands after the CRC is stamped, so the
	// segment finishes cleanly but fails validation at open.
	fault.Arm(fault.Point{Site: fault.SiteShmCopyOut, Action: fault.ActCorrupt})
	writeSegment(t, m, "tbl-f2", "f2", blocks)
	fault.Reset()
	raw, err := os.ReadFile(m.segmentPath("tbl-f2"))
	if err != nil {
		t.Fatal(err)
	}
	_, drained, serveErr, drainErr := restoreBothWays(t, m, "tbl-f2", "f2", raw)
	if !errors.Is(serveErr, ErrSegCorrupt) {
		t.Fatalf("open corrupted segment = %v, want ErrSegCorrupt", serveErr)
	}
	if drainErr == nil || drained != nil {
		t.Fatalf("drain of the corrupted segment = %d blocks, %v", len(drained), drainErr)
	}
}

// TestFaultSiteCopyIn: the open-time CRC passed, so a block damaged on its
// way to the heap is the per-column checksums' to catch — and only the armed
// hit's block fails. In a drain, whose clones are not verified one by one,
// the damage is in what the payload CRC is folded over and fails the drain.
// (The site's error action is the leaf's: its clone step calls Inject.)
func TestFaultSiteCopyIn(t *testing.T) {
	t.Cleanup(fault.Reset)
	fault.Reset()
	m := newTestManager(t, 1, false)
	blocks := buildBlocks(t, 2, 20)
	writeSegment(t, m, "tbl-f4", "f4", blocks)
	v := openView(t, m, "tbl-f4", "f4")

	fault.Arm(fault.Point{Site: fault.SiteShmCopyIn, Action: fault.ActCorrupt, Count: 1})
	if _, err := v.Blocks()[1].CloneToHeap(true); !errors.Is(err, layout.ErrChecksum) {
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
	v = openToDrain(t, m, "tbl-f5", "f5")
	fault.Arm(fault.Point{Site: fault.SiteShmCopyIn, Action: fault.ActCorrupt, Count: 1})
	if restored, err := drainView(v); !errors.Is(err, ErrSegCorrupt) || restored != nil {
		t.Fatalf("drain with a clone damaged = %d blocks, %v, want %v", len(restored), err, ErrSegCorrupt)
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
