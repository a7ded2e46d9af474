package disk

import (
	"errors"
	"fmt"
	"os"
	"sync/atomic"

	"scuba/internal/rowblock"
)

// ErrEmptyFile is a file with no bytes to map.
var ErrEmptyFile = errors.New("disk: empty file")

// Mapping is a file's bytes mapped read-only and whole, shared by reference
// count: how a shm table segment (shm.MappedView) and a store image
// (LoadImage) are read in place. Writes through it fault, so a stray store
// can never damage the file. It is unmapped when the last reference is
// released, and Retain never resurrects it, so a reader either pins live
// memory or is told it is gone. The mapping outlives the file's rename and
// unlink (an unlinked file's blocks are freed at the unmap), but a read past
// a truncation, or of a file rewritten in place, faults the process: only
// the view cuts a mapped file, behind every reader, and nothing rewrites one.
type Mapping struct {
	path string
	data []byte
	heap bool // read into the heap: nothing to unmap
	refs atomic.Int64
}

// Map maps the file at path, holding one reference: the caller's. With heap
// set (shm's tests) or on a build without mmap, the file is read into a heap
// buffer instead. The descriptor is closed once mapped.
func Map(path string, heap bool) (*Mapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if fi.Size() == 0 {
		return nil, fmt.Errorf("%w: %s", ErrEmptyFile, path)
	}
	m := &Mapping{path: path, heap: heap}
	if heap {
		m.data, err = readFile(f, fi.Size())
	} else {
		m.data, err = mmap(f, fi.Size())
	}
	if err != nil {
		return nil, fmt.Errorf("disk: map %s (%d bytes): %w", path, fi.Size(), err)
	}
	m.refs.Store(1)
	return m, nil
}

// Bytes returns the mapped file, whole. Only a holder of a reference may
// read it.
func (m *Mapping) Bytes() []byte { return m.data }

// Refs returns the current reference count (tests and telemetry).
func (m *Mapping) Refs() int64 { return m.refs.Load() }

// Retain pins the mapping for a reader. It reports false when the count has
// already reached zero — the memory is unmapped or about to be — in which
// case the caller must not touch the bytes.
func (m *Mapping) Retain() bool {
	for {
		n := m.refs.Load()
		if n <= 0 {
			return false
		}
		if m.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Release drops one reference. The releaser that takes the count to zero
// unmaps.
func (m *Mapping) Release() {
	if n := m.refs.Add(-1); n == 0 {
		if !m.heap {
			munmap(m.data) //nolint:errcheck // nothing is left to act on a failed unmap
		}
	} else if n < 0 {
		panic(fmt.Sprintf("disk: mapping of %s over-released (refs=%d)", m.path, n))
	}
}

// Evict ends the residency of a store image's block (rowblock.Source) and
// does nothing else: the block's reference, which its remover releases next,
// keeps the mapping, and only the store removes an image file — by rename or
// unlink, which the mapping survives. A shm view cuts its file here instead.
func (m *Mapping) Evict(*rowblock.RowBlock) {}
