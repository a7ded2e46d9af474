package shm

import (
	"fmt"
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
// The open checks metadata only: the segment's index and each image's
// prefix, by their CRCs. A block's column bytes are checked by their first
// reader, once (rowblock.RowBlock.Verify): a scan's first column read, or the
// clone that moves the block heap-side, which checks its copy while it is
// hot. No answer reads a byte no checksum has passed, and a damaged block
// costs that block alone: its reader gets a *rowblock.DamagedError, and the
// leaf replaces the block from the store.
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
	m        *Manager
	seg      *Segment
	offsets  []int64 // of each block image in the segment, then of the footer
	blocks   []*rowblock.RowBlock
	refs     atomic.Int64
	resident atomic.Int64 // blocks a table still holds
}

// OpenTableSegmentView maps the table segment si names read-only and decodes
// every block image in place, reading only metadata: the header and block
// index under the index CRC, each image's prefix under its prefix CRC, the
// images' structure (they tile the payload with no gap), and the segment's
// table name against the (CRC-guarded) metadata's. Anything wrong there is an
// error, and the caller quarantines exactly that table to the store; the
// column bytes are checked when each block is first read. Any failure closes
// the mapping and leaves the file.
//
// A segment with zero blocks has nothing to serve: it is unmapped and deleted
// here, and the view returned holds no blocks and no references.
func OpenTableSegmentView(m *Manager, si SegmentInfo) (*MappedView, error) {
	if err := fault.Inject(fault.SiteShmMap); err != nil {
		return nil, fmt.Errorf("shm: map segment %s: %w", si.Segment, err)
	}
	seg, err := m.open(si.Segment, true)
	if err != nil {
		return nil, err
	}
	v := &MappedView{m: m, seg: seg}
	if err := v.decode(si.Table); err != nil {
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

// decode validates the mapped segment's metadata and decodes its block
// images in place. There is no CorruptBytes hook: the mapping is PROT_READ,
// so flipping bytes in place would fault. Rot coverage comes from arming
// shm.copy_out with corrupt — the CRC checks, here or at a block's first
// read, are what must catch it.
func (v *MappedView) decode(table string) error {
	b := v.seg.Bytes()
	name, offsets, crcs, err := parseTableSegment(b)
	if err != nil {
		return err
	}
	if name != table {
		return fmt.Errorf("%w: segment names table %q, metadata says %q", ErrSegCorrupt, name, table)
	}
	if payloadStart := int64(segHeaderFixed + len(name)); offsets[0] != payloadStart {
		return fmt.Errorf("%w: first block at %d, payload at %d", ErrSegCorrupt, offsets[0], payloadStart)
	}
	for i, crc := range crcs {
		rb, size, err := rowblock.OpenImage(b[offsets[i]:offsets[i+1]], crc)
		if err == nil && int64(size) != offsets[i+1]-offsets[i] {
			err = fmt.Errorf("%w: image of %d bytes in a slot of %d", ErrSegCorrupt, size, offsets[i+1]-offsets[i])
		}
		if err != nil {
			return fmt.Errorf("shm: block %d of %s: %w", i, table, err)
		}
		rb.SetSource(v)
		v.blocks = append(v.blocks, rb)
	}
	v.offsets = offsets
	return nil
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
// reference: block i is handed to clone newest first, and behind each clone
// the segment from that block's image to its end goes back to tmpfs
// ("truncate the table shared memory segment if needed") with the block's
// residency reference, so the heap grows as the segment shrinks and the
// footprint stays flat (§4.4). The clone checks its copy (CloneToHeap) and
// may return nil for a block the caller drops. Drain returns the clones in
// segment order. The last release unmaps and deletes the segment; so does a
// clone's error, which is Drain's and releases the blocks not yet cloned.
func (v *MappedView) Drain(clone func(i int, rb *rowblock.RowBlock) (*rowblock.RowBlock, error)) ([]*rowblock.RowBlock, error) {
	out := make([]*rowblock.RowBlock, len(v.blocks))
	v.seg.populate()
	for i := len(v.blocks) - 1; i >= 0; i-- {
		rb, err := clone(i, v.blocks[i])
		if err == nil {
			out[i], err = rb, v.seg.Truncate(v.offsets[i])
		}
		if err != nil {
			rowblock.ReleaseSources(v.blocks[:i+1])
			return nil, err
		}
		v.Evict()
		v.Release()
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
