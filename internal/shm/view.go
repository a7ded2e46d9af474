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
// References: the view opens holding one reference per decoded block (the
// table's residency), and every in-flight scan that snapshots a view block
// takes one more via Retain. Whoever removes a block from circulation —
// the eager drain, background promotion, expiry, shutdown copy-out, table
// teardown — releases the block's residency reference; the scan that pinned a
// block releases its own when it drains. When the count hits zero the segment
// is unmapped and its file deleted, and Retain can never resurrect it (CAS
// from nonzero only), so a reader either pins live memory or is told the view
// is gone.
type MappedView struct {
	m       *Manager
	seg     *Segment
	offsets []int64 // of each block image in the segment
	blocks  []*rowblock.RowBlock
	refs    atomic.Int64
}

// OpenTableSegmentView maps the table segment si names read-only and decodes
// every block image in place. It is the restore path's whole up-front
// gauntlet — header, footer, whole-payload CRC, block image structure, and the
// segment's table name against the (CRC-guarded) metadata's, since the name
// bytes sit outside the payload CRC — so a damaged segment is an error here,
// before any block is installed, and the caller quarantines exactly that table
// to the store. Any failure closes the mapping and leaves the file.
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
	return v, nil
}

// decode validates the mapped segment and decodes its block images in place.
// There is no CorruptBytes hook: the mapping is PROT_READ, so flipping bytes
// in place would fault. Rot coverage comes from arming shm.copy_out with
// corrupt — the CRC validation here is what must catch it.
func (v *MappedView) decode(table string) error {
	b := v.seg.Bytes()
	name, offsets, err := parseTableSegment(b)
	if err != nil {
		return err
	}
	if name != table {
		return fmt.Errorf("%w: segment names table %q, metadata says %q", ErrSegCorrupt, name, table)
	}
	for i, off := range offsets {
		// The segment-wide payload CRC just verified every image byte, so the
		// per-column checksum pass would re-read the same memory for nothing;
		// a block's heap clone is verified when it is made.
		rb, _, err := rowblock.DecodeImageVerified(b[off:])
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
// reference: each block is handed to clone newest first, and behind each clone
// the segment from that block's image to its end goes back to tmpfs
// ("truncate the table shared memory segment if needed") with the block's
// residency reference, so the heap grows as the segment shrinks and the
// footprint stays flat (§4.4). It returns the clones in segment order. The
// last release unmaps and deletes the segment; so does a failure, which
// releases the blocks not yet cloned.
func (v *MappedView) Drain(clone func(*rowblock.RowBlock) (*rowblock.RowBlock, error)) ([]*rowblock.RowBlock, error) {
	out := make([]*rowblock.RowBlock, len(v.blocks))
	for i := len(v.blocks) - 1; i >= 0; i-- {
		var err error
		if out[i], err = clone(v.blocks[i]); err == nil {
			err = v.seg.Truncate(v.offsets[i])
		}
		if err != nil {
			rowblock.ReleaseSources(v.blocks[:i+1])
			return nil, err
		}
		v.Release()
	}
	return out, nil
}

// Release drops one reference. The releaser that takes the count to zero
// unmaps the segment and deletes its file — removal errors are deliberately
// swallowed (a leftover file is swept by the next restore's orphan pass;
// there is no caller positioned to act on the error mid-scan-drain).
func (v *MappedView) Release() {
	if n := v.refs.Add(-1); n == 0 {
		v.seg.Close()                   //nolint:errcheck
		v.m.RemoveSegment(v.seg.Name()) //nolint:errcheck
	} else if n < 0 {
		panic(fmt.Sprintf("shm: view %s over-released (refs=%d)", v.seg.Name(), n))
	}
}
