package shm

import (
	"fmt"
	"hash/crc32"
	"sync/atomic"

	"scuba/internal/fault"
	"scuba/internal/rowblock"
)

// MappedView is the one reader of a table segment: a read-only mmap whose
// block images are decoded in place, so the RBC blobs alias the mapping. An
// instant-on restart serves queries from the blocks while a background
// promoter clones them to the heap; an eager restart clones them all before
// the leaf goes ALIVE, newest first, handing the segment's tail back to tmpfs
// behind each (Drain). Either way the segment stays mapped until the
// last reference drains.
//
// The payload CRC is checked before any block is served or installed, over
// bytes that are being read anyway: by the open when the view will be served
// in place, by Drain — over the copies it makes — when it is drained.
//
// References: the view opens holding one reference per decoded block (the
// table's residency), and every in-flight scan that snapshots a view block
// takes one more via Retain. Whoever removes a block from circulation —
// the eager drain, background promotion, expiry, shutdown copy-out, table
// teardown — ends the block's residency (Evict) and releases its reference;
// the scan that pinned a block releases its own when it drains. The last
// residency to end deletes the segment's file: no table serves the view any
// more, and a scan still reading keeps the mapping, which outlives the
// unlinked file. When the count hits zero the segment is unmapped, and Retain
// can never resurrect it (CAS from nonzero only), so a reader either pins
// live memory or is told the view is gone.
type MappedView struct {
	m         *Manager
	seg       *Segment
	offsets   []int64 // of each block image in the segment, then of the footer
	blocks    []*rowblock.RowBlock
	crc       uint32 // of the payload, as the segment's header states it
	footerCRC uint32 // of the footer alone, the tail Drain's checksum starts from
	refs      atomic.Int64
	resident  atomic.Int64 // blocks a table still holds
}

// OpenTableSegmentView maps the table segment si names read-only and decodes
// every block image in place: header, footer, block image structure (images
// tile the payload with no gap), and the segment's table name against the
// (CRC-guarded) metadata's, since the name bytes sit outside the payload CRC.
// With verify it also checks the whole-payload CRC, so everything that can be
// wrong with a segment is an error here and the view may be served as it is.
// Without, the blocks are structurally sound but unverified: the caller must
// Drain the view, which checks the CRC over its copies, and serve or install
// nothing before that returns. Either way a damaged segment is an error before
// any block is installed, and the caller quarantines exactly that table to the
// store. Any failure closes the mapping and leaves the file.
//
// A segment with zero blocks has nothing to serve: it is unmapped and deleted
// here, and the view returned holds no blocks and no references.
func OpenTableSegmentView(m *Manager, si SegmentInfo, verify bool) (*MappedView, error) {
	if err := fault.Inject(fault.SiteShmMap); err != nil {
		return nil, fmt.Errorf("shm: map segment %s: %w", si.Segment, err)
	}
	seg, err := m.open(si.Segment, true)
	if err != nil {
		return nil, err
	}
	v := &MappedView{m: m, seg: seg}
	if err := v.decode(si.Table, verify); err != nil {
		seg.Close()
		return nil, err
	}
	if len(v.blocks) == 0 {
		seg.Close()                 //nolint:errcheck
		m.RemoveSegment(si.Segment) //nolint:errcheck // the restore's final sweep takes what this leaves
	}
	v.refs.Store(int64(len(v.blocks)))
	v.resident.Store(int64(len(v.blocks)))
	return v, nil
}

// decode validates the mapped segment's structure — and with verify its
// payload CRC — and decodes its block images in place. There is no
// CorruptBytes hook: the mapping is PROT_READ, so flipping bytes in place
// would fault. Rot coverage comes from arming shm.copy_out with corrupt — the
// CRC check, here or in Drain, is what must catch it.
func (v *MappedView) decode(table string, verify bool) error {
	b := v.seg.Bytes()
	name, offsets, crc, err := parseTableSegment(b)
	if err != nil {
		return err
	}
	if name != table {
		return fmt.Errorf("%w: segment names table %q, metadata says %q", ErrSegCorrupt, name, table)
	}
	n := len(offsets) - 1
	payloadStart, footerEnd := int64(segHeaderFixed+len(name)), offsets[n]+int64(8*n)
	if offsets[0] != payloadStart {
		return fmt.Errorf("%w: first block at %d, payload at %d", ErrSegCorrupt, offsets[0], payloadStart)
	}
	if verify {
		if sum := checksumParallel(b[payloadStart:footerEnd]); sum != crc {
			return crcMismatch(sum, crc)
		}
	}
	for i := 0; i < n; i++ {
		// The segment-wide payload CRC covers every image byte, so a per-column
		// checksum pass would read the same memory for nothing.
		rb, size, err := rowblock.DecodeImageVerified(b[offsets[i]:offsets[i+1]])
		if err == nil && int64(size) != offsets[i+1]-offsets[i] {
			err = fmt.Errorf("%w: image of %d bytes in a slot of %d", ErrSegCorrupt, size, offsets[i+1]-offsets[i])
		}
		if err != nil {
			return fmt.Errorf("shm: block %d of %s: %w", i, table, err)
		}
		rb.SetSource(v)
		v.blocks = append(v.blocks, rb)
	}
	v.offsets, v.crc = offsets, crc
	v.footerCRC = crc32.Checksum(b[offsets[n]:footerEnd], segCRCTable)
	return nil
}

// crcMismatch is the error of a payload whose bytes rotted while the segment
// sat in shared memory; the caller quarantines the table to the store.
func crcMismatch(sum, want uint32) error {
	return fmt.Errorf("%w: payload checksum %08x, header says %08x", ErrSegCorrupt, sum, want)
}

// SegmentName returns the mapped segment's name.
func (v *MappedView) SegmentName() string { return v.seg.Name() }

// Blocks returns the decoded zero-copy blocks in segment (arrival) order.
// Each aliases the mapping and carries the view as its Source.
func (v *MappedView) Blocks() []*rowblock.RowBlock { return v.blocks }

// Refs returns the current reference count (tests and telemetry).
func (v *MappedView) Refs() int64 { return v.refs.Load() }

// Retain pins the mapping for a reader. It reports false when the view has
// already drained to zero — the memory is unmapped or about to be — in which
// case the caller must not touch any view block's columns.
func (v *MappedView) Retain() bool {
	for {
		n := v.refs.Load()
		if n <= 0 {
			return false
		}
		if v.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Drain is Figure 7's copy-in loop for an eager restore, which holds every
// reference: each block is handed to clone newest first, and behind each clone
// the segment from that block's image to its end goes back to tmpfs
// ("truncate the table shared memory segment if needed") with the block's
// residency reference, so the heap grows as the segment shrinks and the
// footprint stays flat (§4.4). It returns the clones in segment order. The
// last release unmaps and deletes the segment; so does a failure, which
// releases the blocks not yet cloned.
//
// Drain is also where a drained segment's payload CRC is checked, so that
// each of its bytes is read cold once: per block the checksum of the image
// prefix, from the mapping, runs on over the clone's blobs, still in cache
// from the copy; the blocks' checksums are stitched onto the footer's as they
// come, newest first; and the whole is compared with the header's once, at the
// end. A mismatch is Drain's error — the clones are dropped, none was handed
// on — and covers damage done to a clone on its way to the heap as well.
func (v *MappedView) Drain(clone func(*rowblock.RowBlock) (*rowblock.RowBlock, error)) ([]*rowblock.RowBlock, error) {
	b := v.seg.Bytes()
	out := make([]*rowblock.RowBlock, len(v.blocks))
	sum, summed := v.footerCRC, int64(8*len(v.blocks)) // of the payload's tail, and its length
	for i := len(v.blocks) - 1; i >= 0; i-- {
		rb, err := clone(v.blocks[i])
		if err == nil {
			start, end := v.offsets[i], v.offsets[i+1]
			crc := crc32.Checksum(b[start:end-v.blocks[i].Header().Size], segCRCTable)
			for c := 0; c < rb.NumColumns(); c++ {
				crc = crc32.Update(crc, segCRCTable, rb.Column(c).Blob())
			}
			sum, summed = crc32Combine(crc, sum, summed), summed+end-start
			out[i], err = rb, v.seg.Truncate(start)
		}
		if err != nil {
			rowblock.ReleaseSources(v.blocks[:i+1])
			return nil, err
		}
		v.Evict()
		v.Release()
	}
	if sum != v.crc {
		return nil, crcMismatch(sum, v.crc)
	}
	return out, nil
}

// Evict ends one block's residency. The last one deletes the segment's file
// — a removal error is deliberately swallowed: a leftover file is swept by
// the next restore's orphan pass, and no remover is positioned to act on it.
func (v *MappedView) Evict() {
	if v.resident.Add(-1) == 0 {
		v.m.RemoveSegment(v.seg.Name()) //nolint:errcheck
	}
}

// Release drops one reference. The releaser that takes the count to zero
// unmaps the segment; its file went with the last residency.
func (v *MappedView) Release() {
	if n := v.refs.Add(-1); n == 0 {
		v.seg.Close() //nolint:errcheck
	} else if n < 0 {
		panic(fmt.Sprintf("shm: view %s over-released (refs=%d)", v.seg.Name(), n))
	}
}
