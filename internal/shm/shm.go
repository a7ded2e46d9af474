// Package shm provides the shared memory substrate for fast restarts (§3).
// Shared memory lets a process communicate with its replacement even though
// the two lifetimes never overlap: the first process writes to named
// segments, exits, and the second process maps and reads them.
//
// The paper uses the POSIX mmap API via Boost::Interprocess. Here a segment
// is a file in a tmpfs directory (/dev/shm by default on Linux), which has
// identical lifetime semantics: segments are named, survive process exit,
// and are explicitly removed. A table segment is written with write(2)
// (TableSegmentWriter) and read through one read-only mapping (MappedView).
// A heap-backed fallback (the path of non-Linux builds) keeps the package
// usable on systems without mmap: it reads the whole file into memory, and
// changes nothing else.
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
	"math"
	"os"
	"path/filepath"
	"strings"

	"scuba/internal/disk"
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

// Manager names, maps and removes the segments of one leaf server.
type Manager struct {
	dir       string
	namespace string
	leafID    int
	// noMmap reads segments into the heap, as non-Linux builds do; tests set it.
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
// a generation suffix keeps CreateTableSegment from O_TRUNC-ing a file a live
// view still has mapped, which would SIGBUS every reader. Metadata records the
// full segment name, so restore never needs to reverse this.
func SegmentNameForTableGen(table string, gen int64) string {
	if gen <= 0 {
		return SegmentNameForTable(table)
	}
	return fmt.Sprintf("%s.g%d", SegmentNameForTable(table), gen)
}

// SegmentNameForTable derives a filesystem-safe segment name for a table,
// encoded as the store's and the log's table directories are.
func SegmentNameForTable(table string) string { return "tbl-" + disk.EncodeTableName(table) }

// TableFits reports whether every generation's segment file name of table
// fits in a file name's 255 bytes.
func (m *Manager) TableFits(table string) bool {
	return len(filepath.Base(m.segmentPath(SegmentNameForTableGen(table, math.MaxInt64)))) <= 255
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

// mapSegment maps the named segment's file read-only, whole (disk.Map):
// writes through the mapping fault, so a stray store can never damage a
// table segment.
func (m *Manager) mapSegment(name string) (*disk.Mapping, error) {
	mp, err := disk.Map(m.segmentPath(name), m.noMmap)
	switch {
	case os.IsNotExist(err):
		return nil, ErrSegmentGone
	case errors.Is(err, disk.ErrEmptyFile):
		return nil, fmt.Errorf("%w: segment %s is empty", ErrSegmentSize, name)
	case err != nil:
		return nil, fmt.Errorf("shm: map segment %s: %w", name, err)
	}
	return mp, nil
}

// SegmentSize returns the named segment file's size, 0 when there is none.
func (m *Manager) SegmentSize(name string) int64 {
	fi, err := os.Stat(m.segmentPath(name))
	if err != nil {
		return 0
	}
	return fi.Size()
}
