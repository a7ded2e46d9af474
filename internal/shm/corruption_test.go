package shm

import (
	"errors"
	"reflect"
	"testing"

	"scuba/internal/fault"
	"scuba/internal/layout"
	"scuba/internal/rowblock"
)

// writeSegment backs blocks into a finished segment and returns its file
// contents plus the payload region [payloadStart, footerEnd).
func writeSegment(t testing.TB, m *Manager, segName, tableName string, blocks []*rowblock.RowBlock) (payloadStart, payloadEnd int64) {
	t.Helper()
	w, err := CreateTableSegment(m, segName, tableName, 1<<16)
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

// TestPayloadCRCCatchesFlippedBytes is the property the satellite task asks
// for: the metadata CRC already guards the metadata block, but a flipped bit
// anywhere in a mapped table segment's row-block data (or footer) must be
// caught before any block is restored, so the leaf can quarantine the table
// to disk recovery instead of installing silently wrong columns.
func TestPayloadCRCCatchesFlippedBytes(t *testing.T) {
	m := newTestManager(t, 1, false)
	blocks := buildBlocks(t, 3, 200)
	start, end := writeSegment(t, m, "tbl-crc", "crc", blocks)

	flip := func(off int64, x byte) error {
		seg, err := m.OpenSegment("tbl-crc")
		if err != nil {
			t.Fatal(err)
		}
		seg.Bytes()[off] ^= x
		if err := seg.Close(); err != nil {
			t.Fatal(err)
		}
		v, err := OpenTableSegmentView(m, SegmentInfo{Table: "crc", Segment: "tbl-crc"})
		if err != nil {
			return err
		}
		// Unmap without deleting the file the next flip reopens.
		return v.seg.Close()
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
		err := flip(off, 0x40)
		if !errors.Is(err, ErrSegCorrupt) {
			t.Fatalf("flip at %d (payload [%d,%d)): err = %v, want ErrSegCorrupt", off, start, end, err)
		}
		if err := flip(off, 0x40); err != nil { // flip back: must validate again
			t.Fatalf("restore flip at %d: %v", off, err)
		}
	}
}

// FuzzSegmentCorruption checks that an arbitrary single-byte mutation
// anywhere in the segment file never yields silently wrong block data: the
// open either fails, a clone fails, or every restored block is identical to
// the original.
func FuzzSegmentCorruption(f *testing.F) {
	f.Add(uint32(0), byte(0xff))   // magic
	f.Add(uint32(4), byte(0x01))   // version
	f.Add(uint32(28), byte(0x80))  // payload CRC field
	f.Add(uint32(40), byte(0xa5))  // payload
	f.Add(uint32(999), byte(0x01)) // deep payload / footer
	f.Add(uint32(50), byte(0x00))  // no-op mutation must keep working
	f.Fuzz(func(t *testing.T, off uint32, x byte) {
		m := newTestManager(t, 1, false)
		blocks := buildBlocks(t, 2, 50)
		writeSegment(t, m, "tbl-fz", "fz", blocks)

		seg, err := m.OpenSegment("tbl-fz")
		if err != nil {
			t.Fatal(err)
		}
		b := seg.Bytes()
		pos := int64(off) % seg.Size()
		b[pos] ^= x
		if err := seg.Close(); err != nil {
			t.Fatal(err)
		}

		v, err := OpenTableSegmentView(m, SegmentInfo{Table: "fz", Segment: "tbl-fz"})
		if err != nil {
			return // detected at open (CRC, structure, or the name check) — fine
		}
		restored, err := drainView(v)
		if err != nil {
			return // detected by a clone's column checksums — fine
		}
		// Survived every check: the data must be exactly the original.
		if len(restored) != len(blocks) {
			t.Fatalf("mutation (%d, %#x) silently dropped blocks: %d of %d", pos, x, len(restored), len(blocks))
		}
		for i, rb := range restored {
			orig := blocks[i]
			gotTimes, err := rb.Times(nil)
			if err != nil {
				t.Fatal(err)
			}
			wantTimes, _ := orig.Times(nil)
			if !reflect.DeepEqual(gotTimes, wantTimes) {
				t.Fatalf("mutation (%d, %#x) silently corrupted block %d", pos, x, i)
			}
		}
	})
}

func TestFaultSiteCopyOut(t *testing.T) {
	t.Cleanup(fault.Reset)
	fault.Reset()
	m := newTestManager(t, 1, false)
	blocks := buildBlocks(t, 1, 20)

	fault.Arm(fault.Point{Site: fault.SiteShmCopyOut, Action: fault.ActError})
	w, err := CreateTableSegment(m, "tbl-f1", "f1", 1024)
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
	if _, err := OpenTableSegmentView(m, SegmentInfo{Table: "f2", Segment: "tbl-f2"}); !errors.Is(err, ErrSegCorrupt) {
		t.Fatalf("open corrupted segment = %v, want ErrSegCorrupt", err)
	}
}

// TestFaultSiteCopyIn: the open-time CRC passed, so a block damaged on its
// way to the heap is the per-column checksums' to catch — and only the armed
// hit's block fails. (The site's error action is the leaf's: its clone step
// calls Inject.)
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
