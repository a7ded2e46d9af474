// WAL record framing.
//
// Each record frames one ingested batch:
//
//	u32 magic "WAL2" ("WAL1" for records written before the batch frame)
//	u64 start     global row index of the batch's first row
//	u32 count     rows in the batch
//	u32 length    payload bytes
//	payload       the batch
//	u32 CRC-32C   over everything above
//
// The log is value logging, replayed through the normal ingest path. A WAL2
// payload is the batch frame (rowblock.DecodeFrame) exactly as it arrived
// over the wire: the leaf logs the bytes it was sent and replay decodes them
// into the same column vectors live ingest applied. A WAL1 payload is count
// row payloads (rowblock.DecodeRowPayload) back to back; a log can outlive
// the binary that wrote it, so they stay readable, but are never written.
//
// A record that runs past the end of the segment, or fails its CRC as the
// segment's final record, is torn: the fsync it was waiting on never
// completed, so its batch was never acknowledged and replay discards it
// whole. A bad record with intact records after it is corruption — those
// later records may hold acked data, so replay aborts instead.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"

	"scuba/internal/rowblock"
)

const (
	recordMagicV1 uint32 = 0x314C4157 // "WAL1"
	recordMagic   uint32 = 0x324C4157 // "WAL2"
)

// recordOverhead is the framing cost outside the payload.
const recordOverhead = 4 + 8 + 4 + 4 + 4

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Errors surfaced by the decode path.
var (
	// ErrCorrupt marks a structurally invalid record in the middle of the
	// log — unlike a torn tail, data after it may be lost, so replay aborts
	// and recovery falls back to the disk translate.
	ErrCorrupt = errors.New("wal: corrupt record")
	// errTorn marks an incomplete or CRC-failing record at the end of a
	// buffer: the write (or its fsync) never finished, so the batch was
	// never acknowledged and is discarded whole.
	errTorn = errors.New("wal: torn tail record")
)

// appendRecord frames one batch frame of count rows onto dst.
func appendRecord(dst []byte, start int64, count int, frame []byte) []byte {
	base := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, recordMagic)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(start))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(count))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(frame)))
	dst = append(dst, frame...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[base:], crcTable))
}

// record is one framed batch, its payload still encoded.
type record struct {
	magic   uint32
	start   int64
	count   int
	payload []byte // aliases the buffer it was decoded from
}

// decodeRecord parses the framing of the record at the head of b and returns
// it with its total encoded size. errTorn means b ends mid-record or the CRC
// fails — the caller decides whether that is a legal tail.
func decodeRecord(b []byte) (rec record, used int, err error) {
	if len(b) < recordOverhead {
		return record{}, 0, errTorn
	}
	rec.magic = binary.LittleEndian.Uint32(b)
	if rec.magic != recordMagic && rec.magic != recordMagicV1 {
		return record{}, 0, fmt.Errorf("%w: magic %08x", ErrCorrupt, rec.magic)
	}
	rec.start = int64(binary.LittleEndian.Uint64(b[4:]))
	rec.count = int(binary.LittleEndian.Uint32(b[12:]))
	plen := int(binary.LittleEndian.Uint32(b[16:]))
	used = recordOverhead + plen
	if plen < 0 || used < 0 || used > len(b) {
		// Incomplete extent: the write never finished. used stays 0 so the
		// caller sees the record has no known end.
		return record{}, 0, errTorn
	}
	body := b[:20+plen]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(b[20+plen:]) {
		// The extent is known even though the CRC failed: the caller uses it
		// to tell a torn final record from mid-log corruption.
		return record{}, used, errTorn
	}
	rec.payload = body[20:]
	return rec, used, nil
}

// segmentReader reads segments record by record into one reused buffer,
// each record exactly the bytes decodeRecord would see in the whole segment.
type segmentReader struct {
	f    *os.File
	left int64 // segment bytes after the last record read
	buf  []byte
}

// open starts reading the segment at path, closing the one before it.
func (sr *segmentReader) open(path string) (err error) {
	sr.close()
	if sr.f, err = os.Open(path); err != nil {
		return err
	}
	st, err := sr.f.Stat()
	if err == nil {
		sr.left = st.Size()
	}
	return err
}

// close closes the segment read last; Close on a nil *os.File only errs.
func (sr *segmentReader) close() { sr.f.Close() }

// next decodes the next record as decodeRecord(segment[off:]) would, the
// payload aliasing the buffer; any other error than theirs is a failed read.
func (sr *segmentReader) next() (record, int, error) {
	if sr.left < recordOverhead {
		return record{}, 0, errTorn
	}
	sr.buf = slices.Grow(sr.buf[:0], recordOverhead)[:recordOverhead]
	if _, err := io.ReadFull(sr.f, sr.buf); err != nil {
		return record{}, 0, err
	}
	used := recordOverhead + int64(binary.LittleEndian.Uint32(sr.buf[16:]))
	if used > sr.left {
		return decodeRecord(sr.buf) // runs past the end: torn, unless the magic is bad
	}
	sr.buf = slices.Grow(sr.buf, int(used)-recordOverhead)[:used]
	if _, err := io.ReadFull(sr.f, sr.buf[recordOverhead:]); err != nil {
		return record{}, 0, err
	}
	sr.left -= used
	return decodeRecord(sr.buf)
}

// decode decodes the record's payload into b, reusing b's vectors. The
// record CRC already passed, so a payload that does not decode to count rows
// is an encoder bug or a forged file, not a torn write: ErrCorrupt.
func (rec record) decode(b *rowblock.Batch) error {
	var err error
	if rec.magic == recordMagic {
		err = b.Decode(rec.payload)
	} else {
		var v1 *rowblock.Batch
		if v1, err = decodeRowsV1(rec.payload, rec.count); err == nil {
			*b = *v1
		}
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if b.Rows() != rec.count {
		return fmt.Errorf("%w: record says %d rows, payload holds %d", ErrCorrupt, rec.count, b.Rows())
	}
	return nil
}

// tailRows sums the rows past from that the 24-byte heads of the records
// replay reads announce, capped at rowblock.MaxRows: the size replay reserves
// for the tail. Nothing trusts the sum, so a segment's walk just ends where
// a head cannot be read.
func tailRows(dir string, segs []segFile, from int64) int {
	rows, head := int64(0), make([]byte, recordOverhead-4)
	for i := 0; i < len(segs) && rows < rowblock.MaxRows; i++ {
		if i+1 < len(segs) && segs[i+1].start <= from {
			continue // below the watermark, as replay skips it
		}
		f, err := os.Open(filepath.Join(dir, segs[i].name))
		if err != nil {
			continue
		}
		for off := int64(0); rows < rowblock.MaxRows; off += recordOverhead + int64(binary.LittleEndian.Uint32(head[16:])) {
			if _, err := f.ReadAt(head, off); err != nil {
				break
			}
			start := int64(binary.LittleEndian.Uint64(head[4:]))
			rows += max(start+int64(binary.LittleEndian.Uint32(head[12:]))-max(start, from), 0)
		}
		f.Close()
	}
	return int(min(rows, rowblock.MaxRows))
}

// decodeRowsV1 reads a WAL1 payload: count row payloads back to back.
func decodeRowsV1(p []byte, count int) (*rowblock.Batch, error) {
	// A row costs at least 2 bytes encoded; reject counts the payload cannot
	// hold before allocating (untrusted input must not size allocs).
	if count > len(p)/2+1 {
		return nil, fmt.Errorf("%d rows in %d payload bytes", count, len(p))
	}
	rows := make([]rowblock.Row, count)
	for i := range rows {
		row, n, err := rowblock.DecodeRowPayload(p)
		if err != nil {
			return nil, err
		}
		rows[i] = row
		p = p[n:]
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%d trailing payload bytes", len(p))
	}
	return rowblock.FromRows(rows)
}
