// Package shm provides the shared memory substrate for fast restarts (§3).
// Shared memory lets a process communicate with its replacement even though
// the two lifetimes never overlap: the first process writes to named
// segments, exits, and the second process maps and reads them.
//
// The paper uses the POSIX mmap API via Boost::Interprocess. Here a segment
// is an mmap'ed file in a tmpfs directory (/dev/shm by default on Linux),
// which has identical lifetime semantics: segments are named, survive
// process exit, and are explicitly removed. A heap-backed fallback (the path
// of non-Linux builds) keeps the package usable on systems without mmap; it
// still round-trips through the same files.
//
// Per Figure 4, every leaf server has a unique hard-coded location for its
// metadata: a valid bit, a layout version number, and the names of the
// shared memory segments it allocated — one segment per table.
package shm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"

	"scuba/internal/fault"
)

// LayoutVersion is stamped into leaf metadata. It indicates whether the
// shared memory layout has changed; the heap layout can change independently
// (§4.2). A restoring process that finds a different version must fall back
// to disk recovery.
//
// Version history:
//
//	1 — initial table segment layout
//	2 — table segment header gained a payload CRC
//	3 — the payload CRC became an index CRC, and each block index entry
//	    gained its image prefix's CRC: a block is checked at first read
//	    (see tableseg.go)
//	4 — each block index entry gained the block's global start row, so a
//	    restore numbers its blocks as the segment says, not as the store's
//	    images do
const LayoutVersion uint32 = 4

// DefaultDir is the default segment directory. /dev/shm is a tmpfs on
// Linux, so segments live in physical memory, never on disk.
const DefaultDir = "/dev/shm"

// Options configure a Manager.
type Options struct {
	// Dir is the directory holding segments and metadata. Empty means
	// DefaultDir. Tests point this at t.TempDir().
	Dir string
	// Namespace isolates multiple clusters sharing one directory. It is
	// prefixed to every file name.
	Namespace string
}

// Manager creates, opens, and removes the segments of one leaf server.
type Manager struct {
	dir       string
	namespace string
	leafID    int
	// noMmap takes the heap fallback, as non-Linux builds do; tests set it.
	noMmap bool
}

// NewManager returns a manager for the given leaf's segments. Leaf IDs are
// small integers, unique per machine (each machine runs eight leaf servers).
func NewManager(leafID int, opts Options) *Manager {
	dir := opts.Dir
	if dir == "" {
		dir = DefaultDir
	}
	ns := opts.Namespace
	if ns == "" {
		ns = "scuba"
	}
	return &Manager{dir: dir, namespace: ns, leafID: leafID}
}

// metadataPath is the leaf's unique hard-coded metadata location (§4.2).
func (m *Manager) metadataPath() string {
	return filepath.Join(m.dir, fmt.Sprintf("%s-leaf%d-meta", m.namespace, m.leafID))
}

// segmentPath maps a segment name to its file.
func (m *Manager) segmentPath(name string) string {
	return filepath.Join(m.dir, fmt.Sprintf("%s-leaf%d-%s", m.namespace, m.leafID, name))
}

// SegmentNameForTableGen derives a per-generation segment name: the plain
// table name plus a ".g<gen>" suffix. Instant-on restarts keep old-generation
// segments mapped (live query views) while a new shutdown writes fresh ones;
// a generation suffix keeps CreateSegment from O_TRUNC-ing a file a live view
// still has mapped, which would SIGBUS every reader. Metadata records the
// full segment name, so restore never needs to reverse this.
func SegmentNameForTableGen(table string, gen int64) string {
	if gen <= 0 {
		return SegmentNameForTable(table)
	}
	return fmt.Sprintf("%s.g%d", SegmentNameForTable(table), gen)
}

// SegmentNameForTable derives a filesystem-safe segment name for a table.
func SegmentNameForTable(table string) string {
	var b strings.Builder
	b.WriteString("tbl-")
	for _, r := range table {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		default:
			fmt.Fprintf(&b, "%%%04x", r)
		}
	}
	return b.String()
}

// Errors returned by the manager.
var (
	ErrNoMetadata  = errors.New("shm: no leaf metadata")
	ErrMetaCorrupt = errors.New("shm: corrupt leaf metadata")
	ErrVersionSkew = errors.New("shm: shared memory layout version mismatch")
	ErrSegmentGone = errors.New("shm: segment does not exist")
	ErrSegmentSize = errors.New("shm: bad segment size")
	ErrClosed      = errors.New("shm: segment closed")
)

// SegmentInfo names one table's segment in the leaf metadata.
type SegmentInfo struct {
	Table   string
	Segment string
}

// Metadata is the per-leaf metadata block (Figure 4): a valid bit, the
// layout version, and pointers to (names of) the allocated segments.
type Metadata struct {
	Valid    bool
	Version  uint32
	Created  int64 // unix seconds when the backup began
	Segments []SegmentInfo
}

const metaMagic uint32 = 0x4154454d // "META"

var metaTable = crc32.MakeTable(crc32.Castagnoli)

// encode serializes metadata with a trailing CRC.
func (md *Metadata) encode() []byte {
	var b []byte
	b = binary.LittleEndian.AppendUint32(b, metaMagic)
	b = binary.LittleEndian.AppendUint32(b, md.Version)
	if md.Valid {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(md.Created))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(md.Segments)))
	for _, s := range md.Segments {
		b = binary.LittleEndian.AppendUint16(b, uint16(len(s.Table)))
		b = append(b, s.Table...)
		b = binary.LittleEndian.AppendUint16(b, uint16(len(s.Segment)))
		b = append(b, s.Segment...)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, metaTable))
}

func decodeMetadata(b []byte) (*Metadata, error) {
	if len(b) < 4+4+1+8+4+4 {
		return nil, fmt.Errorf("%w: %d bytes", ErrMetaCorrupt, len(b))
	}
	body, sum := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.Checksum(body, metaTable) != sum {
		return nil, fmt.Errorf("%w: checksum", ErrMetaCorrupt)
	}
	if binary.LittleEndian.Uint32(body) != metaMagic {
		return nil, fmt.Errorf("%w: magic", ErrMetaCorrupt)
	}
	md := &Metadata{
		Version: binary.LittleEndian.Uint32(body[4:]),
		Valid:   body[8] == 1,
		Created: int64(binary.LittleEndian.Uint64(body[9:])),
	}
	n := int(binary.LittleEndian.Uint32(body[17:]))
	pos := 21
	readStr := func() (string, error) {
		if pos+2 > len(body) {
			return "", fmt.Errorf("%w: truncated string", ErrMetaCorrupt)
		}
		l := int(binary.LittleEndian.Uint16(body[pos:]))
		pos += 2
		if pos+l > len(body) {
			return "", fmt.Errorf("%w: truncated string body", ErrMetaCorrupt)
		}
		s := string(body[pos : pos+l])
		pos += l
		return s, nil
	}
	for i := 0; i < n; i++ {
		tbl, err := readStr()
		if err != nil {
			return nil, err
		}
		seg, err := readStr()
		if err != nil {
			return nil, err
		}
		md.Segments = append(md.Segments, SegmentInfo{Table: tbl, Segment: seg})
	}
	return md, nil
}

// WriteMetadata atomically replaces the leaf metadata (write temp + rename,
// so a crash mid-write leaves either the old or the new file, never a torn
// one — a torn metadata block would defeat the valid bit). The temp file
// name is unique per call, so concurrent writers cannot interleave bytes in
// a shared staging file; the last rename wins with a complete image either
// way.
func (m *Manager) WriteMetadata(md *Metadata) error {
	if err := fault.Inject(fault.SiteShmCommit); err != nil {
		return fmt.Errorf("shm: write metadata: %w", err)
	}
	path := m.metadataPath()
	f, err := os.CreateTemp(m.dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("shm: stage metadata: %w", err)
	}
	tmp := f.Name()
	_, werr := f.Write(md.encode())
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp) //nolint:errcheck
		return fmt.Errorf("shm: write metadata: %w", werr)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp) //nolint:errcheck
		return fmt.Errorf("shm: install metadata: %w", err)
	}
	return nil
}

// ReadMetadata loads and validates the leaf metadata.
func (m *Manager) ReadMetadata() (*Metadata, error) {
	if err := fault.Inject(fault.SiteShmMap); err != nil {
		return nil, fmt.Errorf("shm: read metadata: %w", err)
	}
	b, err := os.ReadFile(m.metadataPath())
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNoMetadata
		}
		return nil, fmt.Errorf("shm: read metadata: %w", err)
	}
	return decodeMetadata(b)
}

// Invalidate clears the valid bit if metadata exists. The restore path calls
// it before touching any segment, so an interrupted restore reverts to disk
// recovery on the next start (Figure 7).
func (m *Manager) Invalidate() error {
	md, err := m.ReadMetadata()
	if errors.Is(err, ErrNoMetadata) {
		return nil
	}
	if err != nil {
		return err
	}
	md.Valid = false
	return m.WriteMetadata(md)
}

// RemoveAll deletes every file with this leaf's prefix: the metadata, the
// segments it names and any orphaned ones.
func (m *Manager) RemoveAll() error { return m.sweep(nil) }

// RemoveMetadata deletes only the leaf metadata file, leaving segment files
// in place. The instant-on restore path uses it: segments stay mapped (and
// on tmpfs) until their last reader drains, but the metadata must go so a
// crash mid-promotion reverts to disk/WAL recovery, never to a half-consumed
// backup.
func (m *Manager) RemoveMetadata() error {
	err := os.Remove(m.metadataPath())
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// RemoveOtherSegments deletes every segment file with this leaf's prefix
// except the metadata file and the named segments. The instant-on restore
// calls it after mapping the current generation's views, sweeping orphans
// left by a previous generation that exited before its views drained.
func (m *Manager) RemoveOtherSegments(keep []string) error {
	keepName := map[string]bool{filepath.Base(m.metadataPath()): true}
	for _, k := range keep {
		keepName[filepath.Base(m.segmentPath(k))] = true
	}
	return m.sweep(keepName)
}

// sweep removes this leaf's files but the kept ones and returns the first
// failure; a directory that is not there holds nothing to remove.
func (m *Manager) sweep(keep map[string]bool) error {
	prefix := fmt.Sprintf("%s-leaf%d-", m.namespace, m.leafID)
	entries, err := os.ReadDir(m.dir)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	var firstErr error
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), prefix) && !keep[e.Name()] {
			if err := os.Remove(filepath.Join(m.dir, e.Name())); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// RemoveSegment deletes one segment file.
func (m *Manager) RemoveSegment(name string) error {
	err := os.Remove(m.segmentPath(name))
	if os.IsNotExist(err) {
		return ErrSegmentGone
	}
	return err
}

// CreateSegment creates (or truncates) a read-write mapped segment of the
// given, fixed size (the flight recorder's ring; a table segment is appended
// to, not mapped, by TableSegmentWriter).
func (m *Manager) CreateSegment(name string, size int64) (*Segment, error) {
	if size <= 0 {
		return nil, fmt.Errorf("%w: %d", ErrSegmentSize, size)
	}
	path := m.segmentPath(name)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("shm: create segment %s: %w", name, err)
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return nil, fmt.Errorf("shm: size segment %s: %w", name, err)
	}
	s := &Segment{name: name, path: path, f: f, size: size, useMmap: !m.noMmap}
	if err := s.mapIn(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// OpenSegment maps an existing segment read-write.
func (m *Manager) OpenSegment(name string) (*Segment, error) { return m.open(name, false) }

// open maps an existing segment. Read-only, writes through the mapping fault:
// table segments are read through a view that a stray store can never damage.
func (m *Manager) open(name string, ro bool) (*Segment, error) {
	path := m.segmentPath(name)
	flag := os.O_RDWR
	if ro {
		flag = os.O_RDONLY
	}
	f, err := os.OpenFile(path, flag, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrSegmentGone
		}
		return nil, fmt.Errorf("shm: open segment %s: %w", name, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if fi.Size() == 0 {
		f.Close()
		return nil, fmt.Errorf("%w: segment %s is empty", ErrSegmentSize, name)
	}
	s := &Segment{name: name, path: path, f: f, size: fi.Size(), useMmap: !m.noMmap, ro: ro}
	if err := s.mapIn(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// SegmentSize returns the named segment file's size, 0 when there is none.
func (m *Manager) SegmentSize(name string) int64 {
	fi, err := os.Stat(m.segmentPath(name))
	if err != nil {
		return 0
	}
	return fi.Size()
}

// Segment is one mapped shared memory region.
type Segment struct {
	name    string
	path    string
	f       *os.File
	size    int64
	data    []byte
	useMmap bool
	ro      bool
	closed  bool
}

// Name returns the segment name.
func (s *Segment) Name() string { return s.name }

// Size returns the current segment size.
func (s *Segment) Size() int64 { return s.size }

// Bytes returns the mapped contents. The slice is invalidated by Close, and
// past the new size by Truncate.
func (s *Segment) Bytes() []byte { return s.data }

// Truncate shrinks the segment's file (Figure 7: "truncate the table shared
// memory segment if needed", which releases physical pages back as the restore
// drains the segment) and keeps its mapping — no munmap and mmap per drained
// block — so the caller must not touch Bytes() past newSize again: under mmap
// those pages are gone.
func (s *Segment) Truncate(newSize int64) error {
	if s.closed {
		return ErrClosed
	}
	if newSize >= s.size {
		return nil
	}
	if newSize <= 0 {
		newSize = 1 // keep the mapping valid; Remove deletes the file
	}
	if err := os.Truncate(s.path, newSize); err != nil {
		return fmt.Errorf("shm: truncate %s: %w", s.name, err)
	}
	s.size = newSize
	return nil
}

// Close unmaps and closes the segment, flushing contents to the backing
// file. The file (and therefore the data) survives for the next process.
func (s *Segment) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.mapOut(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}
