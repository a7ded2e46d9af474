package shm

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"scuba/internal/fault"
	"scuba/internal/rowblock"
)

// Table segment layout (Figure 4). One shared memory segment per table.
// Because the full set of row blocks and their sizes is known at backup
// time, blocks are laid out contiguously — one less level of indirection
// than the heap layout:
//
//	u32  magic "SGT1"
//	u32  shm layout version
//	u64  payload start (offset of the first block image)
//	u64  footer offset (end of payload, patched by Finish)
//	u32  number of row blocks (patched by Finish)
//	u32  payload CRC-32C over [payload start, footer end) (patched by Finish)
//	u16  table name length
//	...  table name bytes
//	...  row block images, contiguous (see rowblock.AppendImage)
//	footer: u64 per block — offset of each block image
//
// The footer lets an eager restore drain the segment in reverse, truncating
// the tail after each block (MappedView.Drain) so tmpfs pages are
// released as the data moves back to the heap, keeping the total footprint
// flat (§4.4, Figure 7).
//
// The payload CRC covers every block image and the footer. Row blocks carry
// their own per-column checksums, but those are only verified as each block
// is decoded — a flipped byte in table N's data would otherwise surface
// mid-restore, after earlier tables were already installed. Verifying the
// whole payload when the segment is opened turns data rot into an up-front
// quarantine decision for exactly the damaged table.

// SegMagic identifies a table segment.
const SegMagic uint32 = 0x31544753 // "SGT1"

const segHeaderFixed = 4 + 4 + 8 + 8 + 4 + 4 + 2

// ErrSegCorrupt is returned for structurally invalid table segments.
var ErrSegCorrupt = fmt.Errorf("shm: corrupt table segment")

var segCRCTable = crc32.MakeTable(crc32.Castagnoli)

// TableSegmentWriter streams a table's row blocks into a segment, one row
// block column at a time (Figure 6).
//
// A writer is single-goroutine: the parallel shutdown path gives each worker
// its own writer over its own segment. Distinct writers over distinct
// segment names are safe to drive concurrently — CreateTableSegment touches
// only the segment's own file. Finish and Abort are terminal: WriteBlock or
// Finish after either returns ErrClosed instead of touching unmapped memory,
// and Abort is idempotent (Abort after Finish is a no-op, so error paths can
// abort every writer unconditionally).
type TableSegmentWriter struct {
	seg          *Segment
	payloadStart int64
	pos          int64
	offsets      []int64
	// BytesCopied counts payload bytes written, for bandwidth accounting.
	BytesCopied int64

	finished bool
	aborted  bool
}

// Name returns the segment name the writer targets.
func (w *TableSegmentWriter) Name() string { return w.seg.Name() }

// CreateTableSegment creates a segment sized by estimate (Figure 6:
// "estimate size of table"); WriteBlock grows it as needed.
func CreateTableSegment(m *Manager, segName, tableName string, estimate int64) (*TableSegmentWriter, error) {
	headerSize := int64(segHeaderFixed + len(tableName))
	size := headerSize + estimate
	if size < headerSize+1024 {
		size = headerSize + 1024
	}
	seg, err := m.CreateSegment(segName, size)
	if err != nil {
		return nil, err
	}
	b := seg.Bytes()
	binary.LittleEndian.PutUint32(b[0:], SegMagic)
	binary.LittleEndian.PutUint32(b[4:], LayoutVersion)
	binary.LittleEndian.PutUint64(b[8:], uint64(headerSize))
	binary.LittleEndian.PutUint64(b[16:], uint64(headerSize)) // patched by Finish
	binary.LittleEndian.PutUint32(b[24:], 0)                  // patched by Finish
	binary.LittleEndian.PutUint32(b[28:], 0)                  // payload CRC, patched by Finish
	binary.LittleEndian.PutUint16(b[32:], uint16(len(tableName)))
	copy(b[segHeaderFixed:], tableName)
	return &TableSegmentWriter{seg: seg, payloadStart: headerSize, pos: headerSize}, nil
}

// WriteBlock copies one row block into the segment column by column. When
// release is true each heap column is dropped right after its copy, so the
// block's memory is reclaimed incrementally (Figure 6 pseudocode).
func (w *TableSegmentWriter) WriteBlock(rb *rowblock.RowBlock, release bool) error {
	if w.finished || w.aborted {
		return fmt.Errorf("%w: WriteBlock on %s segment writer", ErrClosed, w.stateName())
	}
	if err := fault.Inject(fault.SiteShmCopyOut); err != nil {
		return fmt.Errorf("shm: copy out to %s: %w", w.seg.Name(), err)
	}
	imageSize := int64(rb.ImageSize()) // before columns are released
	need := w.pos + imageSize
	if need > w.seg.Size() {
		// Figure 6: "grow the table segment in size if needed".
		newSize := w.seg.Size() + w.seg.Size()/2
		if newSize < need {
			newSize = need
		}
		if err := w.seg.Grow(newSize); err != nil {
			return err
		}
	}
	iw, err := rb.NewImageWriter(w.seg.Bytes()[w.pos:])
	if err != nil {
		return err
	}
	for i := 0; !iw.Done(); i++ {
		n := iw.CopyColumn()
		w.BytesCopied += int64(n)
		if release {
			rb.ReleaseColumn(i)
		}
	}
	w.offsets = append(w.offsets, w.pos)
	w.pos += imageSize
	return nil
}

// Finish writes the footer, patches the header, trims any over-allocation,
// and closes the segment. The data stays in the backing tmpfs file. Finish
// is terminal: a second Finish, or a Finish after Abort, returns ErrClosed.
func (w *TableSegmentWriter) Finish() error {
	if w.finished || w.aborted {
		return fmt.Errorf("%w: Finish on %s segment writer", ErrClosed, w.stateName())
	}
	w.finished = true
	footerOff := w.pos
	need := footerOff + int64(8*len(w.offsets))
	if need > w.seg.Size() {
		if err := w.seg.Grow(need); err != nil {
			return err
		}
	}
	b := w.seg.Bytes()
	for i, off := range w.offsets {
		binary.LittleEndian.PutUint64(b[footerOff+int64(8*i):], uint64(off))
	}
	binary.LittleEndian.PutUint64(b[16:], uint64(footerOff))
	binary.LittleEndian.PutUint32(b[24:], uint32(len(w.offsets)))
	binary.LittleEndian.PutUint32(b[28:], crc32.Checksum(b[w.payloadStart:need], segCRCTable))
	// An armed copy_out corruption flips payload bytes after the CRC is
	// stamped — the same damage as memory rot between commit and restore —
	// so the restore side must detect it and quarantine the table.
	fault.CorruptBytes(fault.SiteShmCopyOut, b[w.payloadStart:need])
	if err := w.seg.Sync(); err != nil {
		return err
	}
	if need < w.seg.Size() {
		if err := w.seg.Truncate(need); err != nil {
			return err
		}
	}
	return w.seg.Close()
}

// Abort closes the segment without finishing; the caller removes it. Abort
// is idempotent, and aborting an already-finished writer is a no-op, so a
// failed multi-table shutdown can abort every writer it created — including
// those of tables whose copy had already finished.
func (w *TableSegmentWriter) Abort() error {
	if w.finished || w.aborted {
		return nil
	}
	w.aborted = true
	return w.seg.Close()
}

func (w *TableSegmentWriter) stateName() string {
	if w.aborted {
		return "aborted"
	}
	return "finished"
}

// parseTableSegment validates a table segment's header, footer, and
// whole-payload CRC, returning the table name and the block image offsets. A
// CRC mismatch means block data rotted while the segment sat in shared
// memory; the caller quarantines the table to the store.
func parseTableSegment(b []byte) (string, []int64, error) {
	if len(b) < segHeaderFixed {
		return "", nil, fmt.Errorf("%w: %d bytes", ErrSegCorrupt, len(b))
	}
	if m := binary.LittleEndian.Uint32(b[0:]); m != SegMagic {
		return "", nil, fmt.Errorf("%w: magic %08x", ErrSegCorrupt, m)
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != LayoutVersion {
		return "", nil, fmt.Errorf("%w: segment version %d, code version %d", ErrVersionSkew, v, LayoutVersion)
	}
	payloadStart := int64(binary.LittleEndian.Uint64(b[8:]))
	footerOff := int64(binary.LittleEndian.Uint64(b[16:]))
	nblocks := int(binary.LittleEndian.Uint32(b[24:]))
	payloadCRC := binary.LittleEndian.Uint32(b[28:])
	nameLen := int(binary.LittleEndian.Uint16(b[32:]))
	if payloadStart != int64(segHeaderFixed+nameLen) ||
		footerOff < payloadStart ||
		footerOff+int64(8*nblocks) > int64(len(b)) {
		return "", nil, fmt.Errorf("%w: payload=%d footer=%d blocks=%d len=%d",
			ErrSegCorrupt, payloadStart, footerOff, nblocks, len(b))
	}
	if sum := checksumParallel(b[payloadStart : footerOff+int64(8*nblocks)]); sum != payloadCRC {
		return "", nil, fmt.Errorf("%w: payload checksum %08x, header says %08x",
			ErrSegCorrupt, sum, payloadCRC)
	}
	tableName := string(b[segHeaderFixed : segHeaderFixed+nameLen])
	offsets := make([]int64, nblocks)
	prev := payloadStart
	for i := 0; i < nblocks; i++ {
		off := int64(binary.LittleEndian.Uint64(b[footerOff+int64(8*i):]))
		if off < prev || off >= footerOff {
			return "", nil, fmt.Errorf("%w: block %d offset %d", ErrSegCorrupt, i, off)
		}
		offsets[i] = off
		prev = off
	}
	return tableName, offsets, nil
}
