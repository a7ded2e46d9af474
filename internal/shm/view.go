package shm

import (
	"fmt"
	"os"
	"sync"

	"scuba/internal/disk"
	"scuba/internal/fault"
	"scuba/internal/rowblock"
)

// MappedView is the one reader of a table segment: a read-only mmap whose
// block images are decoded in place, so the RBC blobs alias the mapping. Both
// starts serve a table from its view's blocks and move them to the heap one
// at a time, newest first (the leaf's one move loop): an eager start before
// the leaf goes ALIVE, an instant-on start behind it while queries read the
// view. The segment stays mapped until the last reference drains.
//
// The open checks metadata only: the segment's index and each image's
// prefix, by their CRCs. A block's column bytes are checked by their first
// reader, once (rowblock.RowBlock.Verify): a scan's first column read, or the
// clone that moves the block heap-side, which checks its copy while it is
// hot. No answer reads a byte no checksum has passed, and a damaged block
// costs that block alone: its reader gets a *rowblock.DamagedError, and the
// leaf replaces the block from the store.
//
// References are the mapping's (disk.Mapping): the view opens holding one
// reference per decoded block (the table's residency), and every reader that
// pins a view block takes one more via Retain. Whoever removes a block from
// circulation — promotion, expiry, a damaged block's replacement, shutdown
// copy-out, table teardown — ends the block's residency (Evict) and releases
// its reference; a reader releases its own when it is done. When the count
// hits zero the segment is unmapped, and Retain can never resurrect it, so a
// reader either pins live memory or is told the view is gone.
//
// The tail (§4.4, Figure 7: "truncate the table shared memory segment if
// needed"): when a residency ends and every block from some image on has
// left, the segment's file is cut back to that image's offset — but only if
// no reader pins the view, which is when the references are the residencies
// plus the evicting caller's own. Nothing reads a cut byte: a block is read
// by a reader that pinned it while its table held it (a pin counted before
// the block could leave, so the view is not cut under it), or by whoever
// took it out of the table before ending its residency (so it has not left).
// The one decoded column that aliases the mapping, a string set's rows
// (column.StringSetColumn), lives inside the scan that pinned its block and
// never enters the decode cache, whose entries are copies keyed by block.
// Every block a table still holds lies below the cut. So a start that moves
// blocks newest first with nothing pinned — every eager one — hands the
// segment back to tmpfs behind each block and its footprint stays flat, and
// a pinned view is never cut. The last residency to end deletes the file
// instead: a reader still holding a pin keeps the mapping, which outlives
// the unlinked file.
type MappedView struct {
	*disk.Mapping // the segment's file, whole; its references are the view's
	m             *Manager
	name          string  // the segment's
	offsets       []int64 // of each block image in the segment, then of the footer
	blocks        []*rowblock.RowBlock
	starts        []int64 // each block's global start row, as the segment records it

	mu       sync.Mutex
	resident int                         // blocks a table still holds
	left     map[*rowblock.RowBlock]bool // blocks whose residency ended
	tail     int                         // blocks[tail:] are cut from the file
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
	mp, err := m.mapSegment(si.Segment)
	if err != nil {
		return nil, err
	}
	v := &MappedView{Mapping: mp, m: m, name: si.Segment}
	if err := v.decode(si.Table); err != nil {
		mp.Release() // the opener's reference: the unmap
		return nil, err
	}
	// A reference per block, then the opener's goes: a view of no block is
	// unmapped here.
	for range v.blocks {
		mp.Retain()
	}
	mp.Release()
	if len(v.blocks) == 0 {
		m.RemoveSegment(si.Segment) //nolint:errcheck // the restore's final sweep takes what this leaves
	}
	v.resident, v.tail = len(v.blocks), len(v.blocks)
	v.left = make(map[*rowblock.RowBlock]bool, len(v.blocks))
	return v, nil
}

// decode validates the mapped segment's metadata and decodes its block
// images in place. There is no CorruptBytes hook: the mapping is PROT_READ,
// so flipping bytes in place would fault. Rot coverage comes from arming
// shm.copy_out with corrupt — the CRC checks, here or at a block's first
// read, are what must catch it.
func (v *MappedView) decode(table string) error {
	b := v.Bytes()
	name, offsets, starts, crcs, err := parseTableSegment(b)
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
	v.offsets, v.starts = offsets, starts
	return nil
}

// SegmentName returns the mapped segment's name.
func (v *MappedView) SegmentName() string { return v.name }

// Blocks returns the decoded zero-copy blocks in segment (arrival) order.
// Each aliases the mapping and carries the view as its Source.
func (v *MappedView) Blocks() []*rowblock.RowBlock { return v.blocks }

// Starts returns each block's global start row, as Blocks orders them.
func (v *MappedView) Starts() []int64 { return v.starts }

// Evict ends rb's residency: no table holds it any more, and the caller
// releases the reference it held after this returns. The last residency
// deletes the segment's file; before it, a tail every block of which has left
// goes back to tmpfs when no reader pins the view (see MappedView). Removal
// and truncation errors are deliberately swallowed: a leftover file, or a
// longer one, is swept by the next restore's orphan pass, and no remover is
// positioned to act on it.
func (v *MappedView) Evict(rb *rowblock.RowBlock) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.left[rb] = true
	if v.resident--; v.resident == 0 {
		v.m.RemoveSegment(v.name) //nolint:errcheck
		return
	}
	tail := v.tail
	for tail > 0 && v.left[v.blocks[tail-1]] {
		tail--
	}
	// The mapping keeps its length: nothing reads past the cut again, and
	// no munmap and mmap per block.
	if tail < v.tail && v.Refs() == int64(v.resident)+1 && os.Truncate(v.m.segmentPath(v.name), v.offsets[tail]) == nil {
		v.tail = tail
	}
}
