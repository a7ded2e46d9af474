package shm

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

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
// their own per-column checksums, but those cover neither the image prefixes
// (schema, zone maps, offsets) nor the footer. Verifying the whole payload
// before any block of it is served or installed — when the segment is opened
// if it will be served in place, in the drain if it is drained (view.go) —
// turns data rot into a quarantine decision for exactly the damaged table.

// SegMagic identifies a table segment.
const SegMagic uint32 = 0x31544753 // "SGT1"

const segHeaderFixed = 4 + 4 + 8 + 8 + 4 + 4 + 2

// ErrSegCorrupt is returned for structurally invalid table segments.
var ErrSegCorrupt = fmt.Errorf("shm: corrupt table segment")

var segCRCTable = crc32.MakeTable(crc32.Castagnoli)

// TableSegmentWriter streams a table's row blocks into a segment, one row
// block column at a time (Figure 6). The segment's file is appended to with
// write(2) — header, then per block its image prefix and each column blob, in
// segment order — so a byte crosses into shared memory once, by the kernel's
// copy into fresh tmpfs pages, and the payload CRC is folded over each piece
// as it is handed over rather than read back. Nothing is mapped and nothing
// is sized in advance.
//
// A writer is single-goroutine: the parallel shutdown path gives each worker
// its own writer over its own segment. Distinct writers over distinct
// segment names are safe to drive concurrently — CreateTableSegment touches
// only the segment's own file. Finish and Abort are terminal: WriteBlock or
// Finish after either returns ErrClosed, a failed Finish leaves the writer
// aborted with its file closed, and Abort is idempotent and a no-op after
// Finish, so a caller can defer it.
type TableSegmentWriter struct {
	name         string
	f            *os.File
	payloadStart int64
	pos          int64
	offsets      []int64
	crc          uint32 // CRC-32C of [payloadStart, pos)
	// BytesCopied counts column bytes written, for bandwidth accounting.
	BytesCopied int64

	state string // "" while open, then "finished" or "aborted"
}

// CreateTableSegment creates (or truncates) the segment's file and writes its
// header; Finish patches the fields only known at the end.
func CreateTableSegment(m *Manager, segName, tableName string) (*TableSegmentWriter, error) {
	f, err := os.OpenFile(m.segmentPath(segName), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("shm: create segment %s: %w", segName, err)
	}
	headerSize := int64(segHeaderFixed + len(tableName))
	b := make([]byte, 0, headerSize)
	b = binary.LittleEndian.AppendUint32(b, SegMagic)
	b = binary.LittleEndian.AppendUint32(b, LayoutVersion)
	b = binary.LittleEndian.AppendUint64(b, uint64(headerSize))
	b = binary.LittleEndian.AppendUint64(b, uint64(headerSize)) // footer offset, patched by Finish
	b = binary.LittleEndian.AppendUint32(b, 0)                  // block count, patched by Finish
	b = binary.LittleEndian.AppendUint32(b, 0)                  // payload CRC, patched by Finish
	b = binary.LittleEndian.AppendUint16(b, uint16(len(tableName)))
	b = append(b, tableName...)
	if _, err := f.Write(b); err != nil {
		f.Close()
		return nil, fmt.Errorf("shm: write segment %s: %w", segName, err)
	}
	return &TableSegmentWriter{name: segName, f: f, payloadStart: headerSize, pos: headerSize}, nil
}

// put appends p to the segment and folds it into the payload CRC: the write
// just pulled p through the cache, so the checksum reads it hot.
func (w *TableSegmentWriter) put(p []byte) error {
	n, err := w.f.Write(p)
	w.pos += int64(n)
	if err != nil {
		return fmt.Errorf("shm: write segment %s: %w", w.name, err)
	}
	w.crc = crc32.Update(w.crc, segCRCTable, p)
	return nil
}

// WriteBlock copies one row block into the segment column by column. When
// release is true each heap column is dropped right after its copy, so the
// block's memory is reclaimed incrementally (Figure 6 pseudocode).
func (w *TableSegmentWriter) WriteBlock(rb *rowblock.RowBlock, release bool) error {
	if w.state != "" {
		return fmt.Errorf("%w: WriteBlock on %s segment writer", ErrClosed, w.state)
	}
	if err := fault.Inject(fault.SiteShmCopyOut); err != nil {
		return fmt.Errorf("shm: copy out to %s: %w", w.name, err)
	}
	off := w.pos
	if err := w.put(rb.ImagePrefix()); err != nil { // before columns are released
		return err
	}
	for i := 0; i < rb.NumColumns(); i++ {
		blob := rb.Column(i).Blob()
		if err := w.put(blob); err != nil {
			return err
		}
		w.BytesCopied += int64(len(blob))
		if release {
			rb.ReleaseColumn(i)
		}
	}
	w.offsets = append(w.offsets, off)
	return nil
}

// Finish writes the footer, patches the header's footer offset, block count
// and payload CRC, and closes the file; the data stays in tmpfs. Finish is
// terminal: a second Finish, or a Finish after Abort, returns ErrClosed, and
// a Finish that fails has closed the file and left the writer aborted, so the
// segment is the caller's to remove.
func (w *TableSegmentWriter) Finish() error {
	if w.state != "" {
		return fmt.Errorf("%w: Finish on %s segment writer", ErrClosed, w.state)
	}
	footerOff := w.pos
	footer := make([]byte, 0, 8*len(w.offsets))
	for _, off := range w.offsets {
		footer = binary.LittleEndian.AppendUint64(footer, uint64(off))
	}
	err := fault.Inject(fault.SiteShmCopyOut)
	if err == nil {
		err = w.put(footer)
	}
	if err == nil {
		var patch [16]byte
		binary.LittleEndian.PutUint64(patch[0:], uint64(footerOff))
		binary.LittleEndian.PutUint32(patch[8:], uint32(len(w.offsets)))
		binary.LittleEndian.PutUint32(patch[12:], w.crc)
		_, err = w.f.WriteAt(patch[:], 16)
	}
	if err == nil && fault.Enabled() {
		err = w.corruptPayload()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		w.state = "aborted"
		return fmt.Errorf("shm: finish segment %s: %w", w.name, err)
	}
	w.state = "finished"
	return nil
}

// corruptPayload gives an armed copy_out corruption the finished payload to
// flip bytes in, through the file, after the CRC is stamped — the same damage
// as memory rot between commit and restore — so the restore side must detect
// it and quarantine the table.
func (w *TableSegmentWriter) corruptPayload() error {
	b := make([]byte, w.pos-w.payloadStart)
	if _, err := w.f.ReadAt(b, w.payloadStart); err != nil {
		return err
	}
	if !fault.CorruptBytes(fault.SiteShmCopyOut, b) {
		return nil
	}
	_, err := w.f.WriteAt(b, w.payloadStart)
	return err
}

// Abort closes the segment without finishing; the caller removes it. Abort
// is idempotent, and a no-op on a writer whose Finish has run, failed or not.
func (w *TableSegmentWriter) Abort() error {
	if w.state != "" {
		return nil
	}
	w.state = "aborted"
	return w.f.Close()
}

// parseTableSegment validates a table segment's header and footer and returns
// the table name, the block image offsets followed by the footer's (so image i
// is b[offsets[i]:offsets[i+1]]), and the payload CRC the header states. Every
// offset is bounds-checked: the bytes may not have been checksummed yet.
func parseTableSegment(b []byte) (string, []int64, uint32, error) {
	if len(b) < segHeaderFixed {
		return "", nil, 0, fmt.Errorf("%w: %d bytes", ErrSegCorrupt, len(b))
	}
	if m := binary.LittleEndian.Uint32(b[0:]); m != SegMagic {
		return "", nil, 0, fmt.Errorf("%w: magic %08x", ErrSegCorrupt, m)
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != LayoutVersion {
		return "", nil, 0, fmt.Errorf("%w: segment version %d, code version %d", ErrVersionSkew, v, LayoutVersion)
	}
	payloadStart := int64(binary.LittleEndian.Uint64(b[8:]))
	footerOff := int64(binary.LittleEndian.Uint64(b[16:]))
	nblocks := int(binary.LittleEndian.Uint32(b[24:]))
	payloadCRC := binary.LittleEndian.Uint32(b[28:])
	nameLen := int(binary.LittleEndian.Uint16(b[32:]))
	if payloadStart != int64(segHeaderFixed+nameLen) ||
		footerOff < payloadStart ||
		footerOff+int64(8*nblocks) > int64(len(b)) {
		return "", nil, 0, fmt.Errorf("%w: payload=%d footer=%d blocks=%d len=%d",
			ErrSegCorrupt, payloadStart, footerOff, nblocks, len(b))
	}
	tableName := string(b[segHeaderFixed : segHeaderFixed+nameLen])
	offsets := make([]int64, nblocks+1)
	prev := payloadStart
	for i := 0; i < nblocks; i++ {
		off := int64(binary.LittleEndian.Uint64(b[footerOff+int64(8*i):]))
		if off < prev || off >= footerOff {
			return "", nil, 0, fmt.Errorf("%w: block %d offset %d", ErrSegCorrupt, i, off)
		}
		offsets[i] = off
		prev = off
	}
	offsets[nblocks] = footerOff
	return tableName, offsets, payloadCRC, nil
}
