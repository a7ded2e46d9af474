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
//	u32  index CRC-32C over the header's first 28 bytes and the footer
//	     (patched by Finish)
//	u16  table name length
//	...  table name bytes
//	...  row block images, contiguous (see rowblock.AppendImage)
//	footer, the block index: per block a u64 image offset, the u64
//	     global row index of the block's first row (as the store's image
//	     names and the log's records carry it), and the u32 CRC-32C of the
//	     image's prefix (rowblock.PrefixCRC)
//
// The footer's offsets let a restore hand the segment back to tmpfs from
// the end: as blocks move to the heap newest first, the view truncates the
// file behind them (MappedView.Evict), keeping the total footprint flat
// (§4.4, Figure 7).
//
// The row index travels with the block: a restore puts each block back at
// the start its entry records, so the block, its store image and the log
// agree on its rows whatever the store holds (DESIGN.md §13).
//
// Every byte a reader uses is under one checksum, checked when it is read:
// the index CRC covers the header's offsets and counts and the index, the
// metadata (CRC-guarded itself) vouches for the version and the table name,
// a prefix CRC covers each image's header, schema, zone maps and column
// offsets, and each column blob carries its own CRC-32C. Opening a segment
// checks the first three, which is metadata; a block's column CRCs are
// checked by its first reader (rowblock.RowBlock.Verify), so a damaged block
// costs that block alone (view.go).

// SegMagic identifies a table segment.
const SegMagic uint32 = 0x31544753 // "SGT1"

const segHeaderFixed = 4 + 4 + 8 + 8 + 4 + 4 + 2

// segIndexed is the header bytes the index CRC covers, and where it sits.
const segIndexed = 28

// segIndexEntry is one block's footer entry: image offset, start row and
// prefix CRC.
const segIndexEntry = 8 + 8 + 4

// ErrSegCorrupt is returned for structurally invalid table segments.
var ErrSegCorrupt = fmt.Errorf("shm: corrupt table segment")

var segCRCTable = crc32.MakeTable(crc32.Castagnoli)

// TableSegmentWriter streams a table's row blocks into a segment, one row
// block column at a time (Figure 6). The segment's file is appended to with
// write(2) — header, then per block its image prefix and each column blob, in
// segment order — so a byte crosses into shared memory once, by the kernel's
// copy into fresh tmpfs pages, and nothing reads it again: the blobs carry
// their checksums, and only each prefix is checksummed on its way out.
// Nothing is mapped and nothing is sized in advance.
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
	header       []byte // the first segIndexed bytes, patched by Finish
	payloadStart int64
	pos          int64
	index        []byte // the footer so far
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
	b = binary.LittleEndian.AppendUint32(b, 0)                  // index CRC, patched by Finish
	b = binary.LittleEndian.AppendUint16(b, uint16(len(tableName)))
	b = append(b, tableName...)
	if _, err := f.Write(b); err != nil {
		f.Close()
		return nil, fmt.Errorf("shm: write segment %s: %w", segName, err)
	}
	return &TableSegmentWriter{name: segName, f: f, header: b[:segIndexed], payloadStart: headerSize, pos: headerSize}, nil
}

// put appends p to the segment.
func (w *TableSegmentWriter) put(p []byte) error {
	n, err := w.f.Write(p)
	w.pos += int64(n)
	if err != nil {
		return fmt.Errorf("shm: write segment %s: %w", w.name, err)
	}
	return nil
}

// WriteBlock copies one row block, whose first row has global index start,
// into the segment column by column. When
// release is true each heap column is dropped right after its copy, so the
// block's memory is reclaimed incrementally (Figure 6 pseudocode). A block
// still served from a previous segment's mapping goes in one piece, as it
// came: bytes no reader has checked travel with the checksums that will.
func (w *TableSegmentWriter) WriteBlock(rb *rowblock.RowBlock, start int64, release bool) error {
	if w.state != "" {
		return fmt.Errorf("%w: WriteBlock on %s segment writer", ErrClosed, w.state)
	}
	if err := fault.Inject(fault.SiteShmCopyOut); err != nil {
		return fmt.Errorf("shm: copy out to %s: %w", w.name, err)
	}
	off, img := w.pos, rb.MappedImage()
	var prefix []byte
	if img != nil {
		prefix = img[:int64(len(img))-rb.Header().Size]
		if err := w.put(img); err != nil {
			return err
		}
		w.BytesCopied += rb.Header().Size
	} else {
		prefix = rb.ImagePrefix() // before columns are released
		if err := w.put(prefix); err != nil {
			return err
		}
	}
	for i := 0; img == nil && i < rb.NumColumns(); i++ {
		blob := rb.Column(i).Blob()
		if err := w.put(blob); err != nil {
			return err
		}
		w.BytesCopied += int64(len(blob))
		if release {
			rb.ReleaseColumn(i)
		}
	}
	w.index = binary.LittleEndian.AppendUint64(w.index, uint64(off))
	w.index = binary.LittleEndian.AppendUint64(w.index, uint64(start))
	w.index = binary.LittleEndian.AppendUint32(w.index, rowblock.PrefixCRC(prefix))
	return nil
}

// Finish writes the footer, patches the header's footer offset, block count
// and index CRC, and closes the file; the data stays in tmpfs. Finish is
// terminal: a second Finish, or a Finish after Abort, returns ErrClosed, and
// a Finish that fails has closed the file and left the writer aborted, so the
// segment is the caller's to remove.
func (w *TableSegmentWriter) Finish() error {
	if w.state != "" {
		return fmt.Errorf("%w: Finish on %s segment writer", ErrClosed, w.state)
	}
	binary.LittleEndian.PutUint64(w.header[16:], uint64(w.pos))
	binary.LittleEndian.PutUint32(w.header[24:], uint32(len(w.index)/segIndexEntry))
	err := fault.Inject(fault.SiteShmCopyOut)
	if err == nil {
		err = w.put(w.index)
	}
	if err == nil {
		patch := append([]byte(nil), w.header[16:]...)
		patch = binary.LittleEndian.AppendUint32(patch, indexCRC(w.header, w.index))
		_, err = w.f.WriteAt(patch, 16)
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
// flip bytes in, through the file, after the CRCs are stamped — the same
// damage as memory rot between commit and restore — so the restore side must
// detect it: at the open for the index and the prefixes, at a block's first
// read for its columns.
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

// indexCRC is the index CRC of a segment with the given first segIndexed
// header bytes and footer.
func indexCRC(header, footer []byte) uint32 {
	return crc32.Update(crc32.Checksum(header[:segIndexed], segCRCTable), segCRCTable, footer)
}

// parseTableSegment validates a table segment's header and block index —
// its CRC, and that the images tile the payload in order — and returns the
// table name, the block image offsets followed by the footer's (so image i
// is b[offsets[i]:offsets[i+1]]), each block's start row and each image's
// prefix CRC.
func parseTableSegment(b []byte) (name string, offsets, starts []int64, crcs []uint32, err error) {
	if len(b) < segHeaderFixed {
		return "", nil, nil, nil, fmt.Errorf("%w: %d bytes", ErrSegCorrupt, len(b))
	}
	if m := binary.LittleEndian.Uint32(b[0:]); m != SegMagic {
		return "", nil, nil, nil, fmt.Errorf("%w: magic %08x", ErrSegCorrupt, m)
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != LayoutVersion {
		return "", nil, nil, nil, fmt.Errorf("%w: segment version %d, code version %d", ErrVersionSkew, v, LayoutVersion)
	}
	payloadStart := int64(binary.LittleEndian.Uint64(b[8:]))
	footerOff := int64(binary.LittleEndian.Uint64(b[16:]))
	nblocks := int64(binary.LittleEndian.Uint32(b[24:]))
	nameLen := int(binary.LittleEndian.Uint16(b[32:]))
	if payloadStart != int64(segHeaderFixed+nameLen) ||
		footerOff < payloadStart || footerOff > int64(len(b)) ||
		segIndexEntry*nblocks > int64(len(b))-footerOff {
		return "", nil, nil, nil, fmt.Errorf("%w: payload=%d footer=%d blocks=%d len=%d",
			ErrSegCorrupt, payloadStart, footerOff, nblocks, len(b))
	}
	index := b[footerOff : footerOff+segIndexEntry*nblocks]
	if sum, want := indexCRC(b, index), binary.LittleEndian.Uint32(b[segIndexed:]); sum != want {
		return "", nil, nil, nil, fmt.Errorf("%w: index checksum %08x, header says %08x", ErrSegCorrupt, sum, want)
	}
	offsets, starts, crcs = make([]int64, nblocks+1), make([]int64, nblocks), make([]uint32, nblocks)
	prev := payloadStart
	for i := range crcs {
		e := index[segIndexEntry*i:]
		off := int64(binary.LittleEndian.Uint64(e))
		if off < prev || off >= footerOff {
			return "", nil, nil, nil, fmt.Errorf("%w: block %d offset %d", ErrSegCorrupt, i, off)
		}
		offsets[i], starts[i], crcs[i], prev = off, int64(binary.LittleEndian.Uint64(e[8:])), binary.LittleEndian.Uint32(e[16:]), off
	}
	offsets[nblocks] = footerOff
	return string(b[segHeaderFixed : segHeaderFixed+nameLen]), offsets, starts, crcs, nil
}
