// Package disk is the only persistent home of a leaf's sealed row blocks
// (§4.1). Every sealed block is written once, as the same RBK2 image the
// shared memory segments hold — the paper's §6 end state, "use the shared
// memory format … as the disk format" — in a file named by the block's
// global row range, so recovery loads images instead of translating rows.
//
// Layout, per table, under <root>/leaf<ID>/<enc(table)>/:
//
//	block-<start>-<rows>-<maxtime>.rbk   one image; <start> is the global row
//	                                     index of the block's first row
//	watermark                            W: every row below W is in an image
//	                                     or expired by retention; the leaf's
//	                                     write-ahead log replays from W
//
// Sealed blocks are immutable, so an image is never rewritten and a persist
// pass needs no copy-on-write: it writes the images of the blocks sealed
// since the last pass and then moves the watermark.
package disk

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"scuba/internal/fault"
	"scuba/internal/rowblock"
)

// Store is one leaf's block image directory.
type Store struct {
	root string
}

// NewStore creates (if necessary) and opens the leaf's image directory.
func NewStore(root string, leafID int) (*Store, error) {
	dir := filepath.Join(root, fmt.Sprintf("leaf%d", leafID))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("disk: create store: %w", err)
	}
	return &Store{root: dir}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.root }

func (s *Store) tableDir(table string) string {
	return filepath.Join(s.root, EncodeTableName(table))
}

// EncodeTableName makes a table name filesystem-safe and reversible. It is
// shared with the WAL, whose per-table directories use the same scheme.
func EncodeTableName(table string) string {
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

// DecodeTableName reverses EncodeTableName.
func DecodeTableName(enc string) string {
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

// Tables lists tables with a directory in the store, sorted.
func (s *Store) Tables() ([]string, error) { return TableDirs(s.root) }

// TableDirs lists the tables that have a directory (named by
// EncodeTableName) under root, sorted. The WAL lists its tables with it too.
func TableDirs(root string) ([]string, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			out = append(out, DecodeTableName(e.Name()))
		}
	}
	sort.Strings(out)
	return out, nil
}

// Size is the bytes of a table's files by the directory listing alone — what a
// start sizes the table's load by before reading any of it; 0 when unreadable.
func (s *Store) Size(table string) int64 { return DirSize(s.tableDir(table)) }

// DirSize sums the sizes of dir's files. The WAL sizes a table's log with it.
func DirSize(dir string) (n int64) {
	entries, _ := os.ReadDir(dir) //nolint:errcheck // an unreadable directory counts for nothing
	for _, e := range entries {
		if fi, err := e.Info(); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// Image names one block image file: global rows [Start, End()).
type Image struct {
	Start   int64
	Rows    int
	MaxTime int64
	Name    string
}

// End is the global row index one past the image's last row.
func (im Image) End() int64 { return im.Start + int64(im.Rows) }

func parseImage(name string) (Image, bool) {
	if !strings.HasPrefix(name, "block-") || !strings.HasSuffix(name, ".rbk") {
		return Image{}, false
	}
	parts := strings.Split(strings.TrimSuffix(strings.TrimPrefix(name, "block-"), ".rbk"), "-")
	if len(parts) != 3 {
		return Image{}, false
	}
	start, err1 := strconv.ParseInt(parts[0], 10, 64)
	rows, err2 := strconv.Atoi(parts[1])
	maxTime, err3 := strconv.ParseInt(parts[2], 10, 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return Image{}, false
	}
	return Image{Start: start, Rows: rows, MaxTime: maxTime, Name: name}, true
}

// Images lists a table's image files in row order with its watermark. A
// table the store has never seen lists as empty with watermark 0.
func (s *Store) Images(table string) ([]Image, int64, error) {
	dir := s.tableDir(table)
	// The watermark before the listing: a persist renames its images before
	// it saves the watermark, so every image a watermark read here covers is
	// listed below, whatever persist runs meanwhile.
	w, err := loadWatermark(dir)
	if err != nil {
		return nil, 0, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, err
	}
	var out []Image
	for _, e := range entries {
		if im, ok := parseImage(e.Name()); ok {
			out = append(out, im)
		}
	}
	slices.SortFunc(out, func(a, b Image) int { return cmp.Or(cmp.Compare(a.Start, b.Start), b.Rows-a.Rows) })
	// A longer image supersedes a shorter one at its start: a checkpoint of a
	// tail that has grown since, which a crash kept Persist from dropping. It
	// goes once a directory sync has made the longer one's rename durable.
	for i := 1; i < len(out); i++ {
		if out[i].Start == out[i-1].Start && SyncDir(dir) == nil {
			os.Remove(filepath.Join(dir, out[i].Name)) //nolint:errcheck // a stray either way
		}
	}
	return slices.CompactFunc(out, func(a, b Image) bool { return a.Start == b.Start }), w, nil
}

// writeAtomic writes data to dir/name through an fsynced temp file and a
// rename, so a crash leaves either no file or a complete one. The rename is
// durable only after the caller's SyncDir.
func writeAtomic(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) //nolint:errcheck // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(dir, name))
}

// SyncDir fsyncs a directory so renames and newly created files in it are
// durable, not just their contents.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Persist writes blocks[i] as the image of global rows starting at
// starts[i], then durably advances the table's watermark to the end of the
// last one; it returns the number of images written. The watermark's
// directory sync is what makes the image renames durable, so the watermark
// never covers an image a crash could lose, and a crash before it leaves
// complete images above the old watermark, which Load still finds. A first
// image below the old watermark supersedes a checkpoint, which then goes.
func (s *Store) Persist(table string, blocks []*rowblock.RowBlock, starts []int64) (int, error) {
	if len(blocks) == 0 {
		return 0, nil
	}
	dir := s.tableDir(table)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("disk: table dir: %w", err)
	}
	var img []byte
	for i, rb := range blocks {
		if err := fault.Inject(fault.SiteSnapWrite); err != nil {
			return i, fmt.Errorf("disk: image of %s: %w", table, err)
		}
		img = rb.AppendImage(img[:0])
		// Chaos runs corrupt the image in flight; recovery must lose only it.
		fault.CorruptBytes(fault.SiteSnapWrite, img)
		name := fmt.Sprintf("block-%016d-%d-%d.rbk", starts[i], rb.Rows(), rb.Header().MaxTime)
		if err := writeAtomic(dir, name, img); err != nil {
			return i, fmt.Errorf("disk: image of %s: %w", table, err)
		}
	}
	last := len(blocks) - 1
	prev, _ := loadWatermark(dir) //nolint:errcheck // saveWatermark reports it
	err := saveWatermark(dir, starts[last]+int64(blocks[last].Rows()))
	if err == nil && starts[0] < prev {
		_, _, err = s.Images(table)
	}
	return len(blocks), err
}

const watermarkFile = "watermark"

const watermarkMagic uint32 = 0x314B4D57 // "WMK1"

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// saveWatermark durably records that every row below w is in an image (or
// expired). Monotone: a w at or below the file's is only a directory sync,
// so an old in-flight pass can never roll coverage back.
func saveWatermark(dir string, w int64) error {
	cur, err := loadWatermark(dir)
	if err != nil {
		return err
	}
	if w > cur {
		buf := binary.LittleEndian.AppendUint32(nil, watermarkMagic)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(w))
		buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
		if err := writeAtomic(dir, watermarkFile, buf); err != nil {
			return err
		}
	}
	return SyncDir(dir)
}

// loadWatermark reads the persisted watermark; missing or damaged files
// load as 0 (the rename is atomic, so damage is not a torn write, and 0 is
// always safe — Load raises it to the last image's end, and a log that no
// longer reaches back that far is reported as a gap).
func loadWatermark(dir string) (int64, error) {
	data, err := os.ReadFile(filepath.Join(dir, watermarkFile))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	if len(data) != 16 || binary.LittleEndian.Uint32(data) != watermarkMagic {
		return 0, nil
	}
	if crc32.Checksum(data[:12], crcTable) != binary.LittleEndian.Uint32(data[12:]) {
		return 0, nil
	}
	return int64(binary.LittleEndian.Uint64(data[4:])), nil
}

// Load streams a table's images in row order and returns the watermark the
// log replays from. fn receives each image with its decoded block, or with
// the error that cost that block — an unreadable or damaged image, or rows
// missing before it — and recovery goes on with the next image: one bad file
// loses one block, not the table. An expired prefix is not a hole: retention
// deleted those images along with the heap blocks.
func (s *Store) Load(table string, fn func(im Image, rb *rowblock.RowBlock, err error) error) (int64, error) {
	if err := fault.Inject(fault.SiteDiskRead); err != nil {
		return 0, fmt.Errorf("disk: load %s: %w", table, err)
	}
	images, w, err := s.Images(table)
	if err != nil {
		return 0, fmt.Errorf("disk: load %s: %w", table, err)
	}
	pos := int64(-1)
	for _, im := range images {
		if pos >= 0 && im.Start != pos {
			if err := fn(im, nil, fmt.Errorf("disk: %s: rows %d-%d are in no image", table, pos, im.Start)); err != nil {
				return 0, err
			}
		}
		pos = im.End()
		rb, err := s.LoadImage(table, im)
		if err := fn(im, rb, err); err != nil {
			return 0, err
		}
	}
	if pos > w {
		// Images past the persisted watermark: the crash hit between the
		// image writes and the watermark. The images are complete.
		w = pos
	} else if pos >= 0 && pos < w {
		if err := fn(Image{}, nil, fmt.Errorf("disk: %s: watermark %d is past the last image row %d", table, w, pos)); err != nil {
			return 0, err
		}
	}
	// With zero images, a positive W means retention expired them all: the
	// rows below W are legitimately gone, and the log replays from W.
	return w, nil
}

// LoadImage maps one of the table's images (Images) read-only and decodes
// it in place: the block's columns alias the mapping, which is the block's
// Source — its residency holds the one reference, and the mapping goes with
// the last Release. Every column's checksum is checked here, before the
// caller installs the block, and the header's row count and newest time must
// match the file name's: a window query prunes and answers whole blocks by
// the header's time range, which no column CRC covers. An image that fails
// is unmapped. Fires disk.image once an image.
func (s *Store) LoadImage(table string, im Image) (*rowblock.RowBlock, error) {
	if err := fault.Inject(fault.SiteDiskImage); err != nil {
		return nil, fmt.Errorf("disk: %s image %s: %w", table, im.Name, err)
	}
	m, err := Map(filepath.Join(s.tableDir(table), im.Name), false)
	if err != nil {
		return nil, fmt.Errorf("disk: %s: %w", table, err)
	}
	rb, _, err := rowblock.DecodeImage(m.Bytes())
	switch {
	case err != nil:
	case rb.Rows() != im.Rows:
		err = fmt.Errorf("%d rows, name says %d", rb.Rows(), im.Rows)
	case rb.Header().MaxTime != im.MaxTime:
		err = fmt.Errorf("max time %d, name says %d", rb.Header().MaxTime, im.MaxTime)
	}
	if err != nil {
		m.Release()
		return nil, fmt.Errorf("disk: %s image %s: %w", table, im.Name, err)
	}
	rb.SetSource(m)
	return rb, nil
}

// DropBelow deletes the images whose every row is below row — the one
// retention rule: after Table.Expire, row is the table's first retained row,
// whether age or size dropped the prefix. Returns the number deleted.
func (s *Store) DropBelow(table string, row int64) (int, error) {
	images, _, err := s.Images(table)
	if err != nil {
		return 0, err
	}
	n := 0
	for n < len(images) && images[n].End() <= row {
		n++
	}
	return s.Drop(table, images[:n])
}

// Drop deletes the given images of a table, as Images listed them, and
// returns the number deleted. A shm restore drops every image that is not
// one of its blocks' (Leaf.adoptImages).
func (s *Store) Drop(table string, images []Image) (int, error) {
	for i, im := range images {
		if err := os.Remove(filepath.Join(s.tableDir(table), im.Name)); err != nil {
			return i, err
		}
	}
	return len(images), nil
}
