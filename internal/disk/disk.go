// Package disk implements Scuba's on-disk backup (§4.1). Every leaf stores
// backups of all incoming data on local disk, so recovery is always possible
// even after a software or hardware crash. During normal operation writes
// are asynchronous; shutdown flushes whatever changed since the last
// synchronization point.
//
// Two formats are supported:
//
//   - FormatRow (default): a row-oriented format deliberately different from
//     the in-memory layout. Recovering from it must translate every row back
//     into column blocks — rebuild dictionaries, re-encode, re-compress.
//     This is the translation overhead the paper measures: reading 120 GB
//     takes 20-25 minutes, but reading plus translating takes 2.5-3 hours
//     (§1), so translation dominates disk recovery.
//
//   - FormatColumnar: the shared memory block-image format written straight
//     to disk. This is the paper's §6 future work ("we are planning to use
//     the shared memory format described in this paper as the disk format")
//     and removes nearly all of the translate cost (experiment E8).
package disk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"scuba/internal/column"
	"scuba/internal/fault"
	"scuba/internal/layout"
	"scuba/internal/rowblock"
)

// Format selects the on-disk block encoding.
type Format uint8

// Backup formats.
const (
	FormatRow      Format = iota // row-oriented; recovery pays the translate cost
	FormatColumnar               // shm block images on disk (§6 future work)
)

func (f Format) String() string {
	if f == FormatColumnar {
		return "columnar"
	}
	return "row"
}

func (f Format) ext() string {
	if f == FormatColumnar {
		return ".col"
	}
	return ".row"
}

// Errors returned by the store.
var (
	ErrCorruptFile = errors.New("disk: corrupt backup file")
	ErrNoTable     = errors.New("disk: no such table backup")
)

// Store is one leaf's backup directory.
type Store struct {
	root   string
	leafID int
	format Format

	mu   sync.Mutex
	seqs map[string]int // next sequence number per table
}

// NewStore creates (if necessary) and opens the leaf's backup directory.
func NewStore(root string, leafID int, format Format) (*Store, error) {
	dir := filepath.Join(root, fmt.Sprintf("leaf%d", leafID))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("disk: create store: %w", err)
	}
	return &Store{root: dir, leafID: leafID, format: format, seqs: make(map[string]int)}, nil
}

// Format returns the store's block format.
func (s *Store) Format() Format { return s.format }

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.root }

func (s *Store) tableDir(table string) string {
	return filepath.Join(s.root, encodeTableName(table))
}

// EncodeTableName makes a table name filesystem-safe and reversible. It is
// shared with the WAL, whose per-table directories use the same scheme.
func EncodeTableName(table string) string { return encodeTableName(table) }

// DecodeTableName reverses EncodeTableName.
func DecodeTableName(enc string) string { return decodeTableName(enc) }

// encodeTableName makes a table name filesystem-safe and reversible.
func encodeTableName(table string) string {
	var b strings.Builder
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

func decodeTableName(enc string) string {
	var b strings.Builder
	for i := 0; i < len(enc); {
		if enc[i] == '%' && i+5 <= len(enc) {
			if v, err := strconv.ParseUint(enc[i+1:i+5], 16, 32); err == nil {
				b.WriteRune(rune(v))
				i += 5
				continue
			}
		}
		b.WriteByte(enc[i])
		i++
	}
	return b.String()
}

// blockFile describes one backup file, parsed from its name:
// block-<seq>-<maxtime><ext>.
type blockFile struct {
	seq     int
	maxTime int64
	name    string
}

func parseBlockFile(name, ext string) (blockFile, bool) {
	if !strings.HasPrefix(name, "block-") || !strings.HasSuffix(name, ext) {
		return blockFile{}, false
	}
	core := strings.TrimSuffix(strings.TrimPrefix(name, "block-"), ext)
	parts := strings.SplitN(core, "-", 2)
	if len(parts) != 2 {
		return blockFile{}, false
	}
	seq, err1 := strconv.Atoi(parts[0])
	maxT, err2 := strconv.ParseInt(parts[1], 10, 64)
	if err1 != nil || err2 != nil {
		return blockFile{}, false
	}
	return blockFile{seq: seq, maxTime: maxT, name: name}, true
}

func (s *Store) listBlocks(table string) ([]blockFile, error) {
	entries, err := os.ReadDir(s.tableDir(table))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []blockFile
	for _, e := range entries {
		if bf, ok := parseBlockFile(e.Name(), s.format.ext()); ok {
			out = append(out, bf)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out, nil
}

// nextSeq returns a monotonically increasing sequence number for a table.
func (s *Store) nextSeq(table string) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq, ok := s.seqs[table]; ok {
		s.seqs[table] = seq + 1
		return seq, nil
	}
	blocks, err := s.listBlocks(table)
	if err != nil {
		return 0, err
	}
	seq := 0
	if n := len(blocks); n > 0 {
		seq = blocks[n-1].seq + 1
	}
	s.seqs[table] = seq + 1
	return seq, nil
}

// WriteBlock persists one sealed row block. The write goes to a temp file
// and is renamed into place, so a crash never leaves a torn backup.
func (s *Store) WriteBlock(table string, rb *rowblock.RowBlock) error {
	if err := os.MkdirAll(s.tableDir(table), 0o755); err != nil {
		return fmt.Errorf("disk: table dir: %w", err)
	}
	seq, err := s.nextSeq(table)
	if err != nil {
		return err
	}
	var data []byte
	switch s.format {
	case FormatColumnar:
		data = rb.AppendImage(nil)
	default:
		data, err = encodeRowFormat(rb)
		if err != nil {
			return err
		}
	}
	name := fmt.Sprintf("block-%08d-%d%s", seq, rb.Header().MaxTime, s.format.ext())
	path := filepath.Join(s.tableDir(table), name)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("disk: write block: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("disk: install block: %w", err)
	}
	return nil
}

// Tables lists tables with at least one backup block.
func (s *Store) Tables() ([]string, error) {
	entries, err := os.ReadDir(s.root)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			out = append(out, decodeTableName(e.Name()))
		}
	}
	sort.Strings(out)
	return out, nil
}

// LoadTable reads every backup block of a table in sequence order, decoding
// (and for FormatRow, translating) each into an in-memory row block. The
// per-block callback lets recovery interleave with other work.
func (s *Store) LoadTable(table string, fn func(*rowblock.RowBlock) error) error {
	if err := fault.Inject(fault.SiteDiskRead); err != nil {
		return fmt.Errorf("disk: load %s: %w", table, err)
	}
	blocks, err := s.listBlocks(table)
	if err != nil {
		return err
	}
	if blocks == nil {
		return fmt.Errorf("%w: %s", ErrNoTable, table)
	}
	for _, bf := range blocks {
		data, err := os.ReadFile(filepath.Join(s.tableDir(table), bf.name))
		if err != nil {
			return fmt.Errorf("disk: read %s: %w", bf.name, err)
		}
		var rb *rowblock.RowBlock
		switch s.format {
		case FormatColumnar:
			rb, _, err = rowblock.DecodeImage(data, false)
		default:
			rb, err = decodeRowFormat(data)
		}
		if err != nil {
			return fmt.Errorf("disk: decode %s: %w", bf.name, err)
		}
		if err := fn(rb); err != nil {
			return err
		}
	}
	return nil
}

// ExpireTable removes backup blocks whose newest row is older than cutoff.
// Deletions deferred during shutdown are applied here after recovery.
func (s *Store) ExpireTable(table string, cutoff int64) (int, error) {
	blocks, err := s.listBlocks(table)
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, bf := range blocks {
		if bf.maxTime >= cutoff {
			continue
		}
		if err := os.Remove(filepath.Join(s.tableDir(table), bf.name)); err != nil {
			return removed, err
		}
		removed++
	}
	return removed, nil
}

// DropOldest removes the n oldest backup blocks of a table (size-based
// trimming mirrors in-memory size limits).
func (s *Store) DropOldest(table string, n int) (int, error) {
	blocks, err := s.listBlocks(table)
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, bf := range blocks {
		if removed >= n {
			break
		}
		if err := os.Remove(filepath.Join(s.tableDir(table), bf.name)); err != nil {
			return removed, err
		}
		removed++
	}
	return removed, nil
}

// RemoveAll deletes the entire leaf backup directory tree.
func (s *Store) RemoveAll() error { return os.RemoveAll(s.root) }

// RemoveTable deletes one table's backup and resets its sequence counter.
// WAL recovery calls this after a table replays successfully: the stale
// backup (missing recently sealed blocks) would otherwise duplicate rows
// when the next maintenance sync appended fresh blocks after it.
func (s *Store) RemoveTable(table string) error {
	s.mu.Lock()
	delete(s.seqs, table)
	s.mu.Unlock()
	return os.RemoveAll(s.tableDir(table))
}

// Syncable is the slice of a table the write-behind sync needs.
type Syncable interface {
	Name() string
	UnsyncedBlocks() []*rowblock.RowBlock
	MarkSynced(n int)
}

// SyncTable writes a table's unsynced blocks and advances its watermark,
// returning the number of blocks written. Only sections changed since the
// last synchronization point are written (§4.1).
func (s *Store) SyncTable(t Syncable) (int, error) {
	blocks := t.UnsyncedBlocks()
	for i, rb := range blocks {
		if err := s.WriteBlock(t.Name(), rb); err != nil {
			t.MarkSynced(i)
			return i, err
		}
	}
	t.MarkSynced(len(blocks))
	return len(blocks), nil
}

// ---- Row format ----
//
//	u32 magic "DRW1"; u32 version
//	u64 row count; i64 created
//	u16 ncols; per column: u16 name len, name, u8 type  (time first)
//	rows: per row, each column's value in schema order:
//	    int64/time   zigzag varint
//	    float64      8 bytes LE
//	    string       varint len + bytes
//	    string set   varint count + (varint len + bytes)*
//	u32 CRC-32C over everything before it

const rowMagic uint32 = 0x31575244 // "DRW1"
const rowVersion uint32 = 1

var crcTable = crc32.MakeTable(crc32.Castagnoli)

type decodedColumns struct {
	ints   [][]int64
	floats [][]float64
	strs   []*column.StringColumn
	sets   []*column.StringSetColumn
}

// encodeRowFormat decodes every column of the block (paying decompression)
// and re-serializes row by row.
func encodeRowFormat(rb *rowblock.RowBlock) ([]byte, error) {
	schema := rb.Schema()
	n := rb.Rows()
	hdr := rb.Header()

	cols := decodedColumns{
		ints:   make([][]int64, len(schema)),
		floats: make([][]float64, len(schema)),
		strs:   make([]*column.StringColumn, len(schema)),
		sets:   make([]*column.StringSetColumn, len(schema)),
	}
	for i, f := range schema {
		col, err := rb.DecodeColumn(f.Name)
		if err != nil {
			return nil, err
		}
		switch c := col.(type) {
		case *column.Int64Column:
			cols.ints[i] = c.Values
		case *column.Float64Column:
			cols.floats[i] = c.Values
		case *column.StringColumn:
			cols.strs[i] = c
		case *column.StringSetColumn:
			cols.sets[i] = c
		default:
			return nil, fmt.Errorf("disk: unsupported column %T", col)
		}
	}

	var b []byte
	b = binary.LittleEndian.AppendUint32(b, rowMagic)
	b = binary.LittleEndian.AppendUint32(b, rowVersion)
	b = binary.LittleEndian.AppendUint64(b, uint64(n))
	b = binary.LittleEndian.AppendUint64(b, uint64(hdr.Created))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(schema)))
	for _, f := range schema {
		b = binary.LittleEndian.AppendUint16(b, uint16(len(f.Name)))
		b = append(b, f.Name...)
		b = append(b, byte(f.Type))
	}
	for r := 0; r < n; r++ {
		for i, f := range schema {
			switch f.Type {
			case layout.TypeInt64, layout.TypeTime:
				b = binary.AppendUvarint(b, zigzag(cols.ints[i][r]))
			case layout.TypeFloat64:
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(cols.floats[i][r]))
			case layout.TypeString:
				s := cols.strs[i].Value(r)
				b = binary.AppendUvarint(b, uint64(len(s)))
				b = append(b, s...)
			case layout.TypeStringSet:
				set := cols.sets[i].Value(r)
				b = binary.AppendUvarint(b, uint64(len(set)))
				for _, s := range set {
					b = binary.AppendUvarint(b, uint64(len(s)))
					b = append(b, s...)
				}
			default:
				return nil, fmt.Errorf("disk: cannot serialize column type %v", f.Type)
			}
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crcTable)), nil
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// decodeRowFormat translates a row-format file back into a column block:
// the rows are transposed into one batch and re-ingested through a
// rowblock.Builder, rebuilding dictionaries and re-compressing every column. This is the CPU-intensive
// translation the paper describes (§1, §6).
func decodeRowFormat(data []byte) (*rowblock.RowBlock, error) {
	if len(data) < 4+4+8+8+2+4 {
		return nil, fmt.Errorf("%w: %d bytes", ErrCorruptFile, len(data))
	}
	body, want := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, crcTable) != want {
		return nil, fmt.Errorf("%w: checksum", ErrCorruptFile)
	}
	if binary.LittleEndian.Uint32(body) != rowMagic {
		return nil, fmt.Errorf("%w: magic", ErrCorruptFile)
	}
	if v := binary.LittleEndian.Uint32(body[4:]); v != rowVersion {
		return nil, fmt.Errorf("%w: version %d", ErrCorruptFile, v)
	}
	n := int(binary.LittleEndian.Uint64(body[8:]))
	created := int64(binary.LittleEndian.Uint64(body[16:]))
	ncols := int(binary.LittleEndian.Uint16(body[24:]))
	pos := 26
	schema := make(rowblock.Schema, 0, ncols)
	for i := 0; i < ncols; i++ {
		if pos+2 > len(body) {
			return nil, fmt.Errorf("%w: truncated schema", ErrCorruptFile)
		}
		l := int(binary.LittleEndian.Uint16(body[pos:]))
		pos += 2
		if pos+l+1 > len(body) {
			return nil, fmt.Errorf("%w: truncated schema entry", ErrCorruptFile)
		}
		schema = append(schema, rowblock.Field{
			Name: string(body[pos : pos+l]),
			Type: layout.ValueType(body[pos+l]),
		})
		pos += l + 1
	}
	if len(schema) == 0 || schema[0].Name != rowblock.TimeColumn {
		return nil, fmt.Errorf("%w: first column is not time", ErrCorruptFile)
	}

	readUvarint := func() (uint64, error) {
		v, used := binary.Uvarint(body[pos:])
		if used <= 0 {
			return 0, fmt.Errorf("%w: bad varint at %d", ErrCorruptFile, pos)
		}
		pos += used
		return v, nil
	}
	readString := func() (string, error) {
		l, err := readUvarint()
		if err != nil {
			return "", err
		}
		if uint64(len(body)-pos) < l {
			return "", fmt.Errorf("%w: string overruns file", ErrCorruptFile)
		}
		s := string(body[pos : pos+int(l)])
		pos += int(l)
		return s, nil
	}

	// The file's schema is fixed, so its rows decode straight into the column
	// vectors of one batch, which the builder appends whole.
	if t := schema[0].Type; t != layout.TypeInt64 && t != layout.TypeTime {
		return nil, fmt.Errorf("%w: time column has type %v", ErrCorruptFile, t)
	}
	bt := &rowblock.Batch{Cols: make([]rowblock.BatchColumn, ncols-1)}
	seen := make(map[string]bool, ncols)
	for i, f := range schema {
		if seen[f.Name] {
			return nil, fmt.Errorf("%w: duplicate column %q", ErrCorruptFile, f.Name)
		}
		seen[f.Name] = true
		if i > 0 {
			bt.Cols[i-1] = rowblock.BatchColumn{Name: f.Name, Type: f.Type}
			if f.Type == layout.TypeTime {
				bt.Cols[i-1].Type = layout.TypeInt64
			}
		}
	}
	for r := 0; r < n; r++ {
		for i, f := range schema {
			var c *rowblock.BatchColumn
			if i > 0 {
				c = &bt.Cols[i-1]
			}
			switch f.Type {
			case layout.TypeInt64, layout.TypeTime:
				u, err := readUvarint()
				if err != nil {
					return nil, err
				}
				if i == 0 {
					bt.Times = append(bt.Times, unzigzag(u))
				} else {
					c.Ints = append(c.Ints, unzigzag(u))
				}
			case layout.TypeFloat64:
				if pos+8 > len(body) {
					return nil, fmt.Errorf("%w: float overruns file", ErrCorruptFile)
				}
				c.Floats = append(c.Floats, math.Float64frombits(binary.LittleEndian.Uint64(body[pos:])))
				pos += 8
			case layout.TypeString:
				s, err := readString()
				if err != nil {
					return nil, err
				}
				c.Strs = append(c.Strs, s)
			case layout.TypeStringSet:
				count, err := readUvarint()
				if err != nil {
					return nil, err
				}
				set := make([]string, 0, count)
				for j := uint64(0); j < count; j++ {
					s, err := readString()
					if err != nil {
						return nil, err
					}
					set = append(set, s)
				}
				c.Sets = append(c.Sets, set)
			default:
				return nil, fmt.Errorf("%w: column type %v", ErrCorruptFile, f.Type)
			}
		}
	}
	builder := rowblock.NewBuilder(created)
	if took, err := builder.AppendBatch(bt); err != nil || took < n {
		if err == nil {
			err = rowblock.ErrFull
		}
		return nil, fmt.Errorf("disk: translating %d rows: %w", n, err)
	}
	if pos != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptFile, len(body)-pos)
	}
	return builder.Seal()
}
