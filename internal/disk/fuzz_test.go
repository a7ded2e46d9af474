package disk

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"scuba/internal/codec"
	"scuba/internal/column"
	"scuba/internal/rowblock"
)

// FuzzImageLoad plants arbitrary bytes as a block image file and loads the
// table — the code path every store recovery runs over every image. Each
// input is tried raw and resealed: with the column checksums of the seed
// image's layout recomputed, so that mutations inside a column get past the
// CRC to the structure checks behind it. Load must cost the table at most
// that block and never panic, and a block it accepts must hold the rows its
// file name says. Load never decodes a column — the first query does — so
// every accepted block's columns are decoded here too: a resealed column may
// fail to decode, but not panic or size a buffer from a field the checksum
// merely vouches was written.
func FuzzImageLoad(f *testing.F) {
	b := rowblock.NewBuilder(7)
	for i := 0; i < 50; i++ {
		b.AddRow(rowblock.Row{Time: int64(i), Cols: map[string]rowblock.Value{ //nolint:errcheck
			"s": rowblock.StringValue("x"),
			"n": rowblock.Int64Value(int64(i)),
			"t": rowblock.SetValue("a", "b"),
		}})
	}
	seed, err := b.Seal()
	if err != nil {
		f.Fatal(err)
	}
	valid := seed.AppendImage(nil)
	// Column blobs sit back to back at the image's end; each ends in the
	// CRC-32C of everything before it.
	var blobs [][2]int
	for i, end := len(seed.Schema())-1, len(valid); i >= 0; i-- {
		start := end - seed.Column(i).Size()
		blobs = append(blobs, [2]int{start, end})
		end = start
	}
	reseal := func(data []byte) []byte {
		if len(data) != len(valid) {
			return data
		}
		out := append([]byte(nil), data...)
		for _, r := range blobs {
			binary.LittleEndian.PutUint32(out[r[1]-4:], crc32.Checksum(out[r[0]:r[1]-4], crcTable))
		}
		return out
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(nil))
	// A column whose footer claims a terabyte behind the LZ4 compressor: with
	// its CRC resealed, only the decompressor's own bound stands between the
	// first query and that allocation.
	bomb := append([]byte(nil), valid...)
	col := blobs[0]
	bomb[col[0]+6] = byte(codec.NewCode(codec.Code(bomb[col[0]+6]).Transform(), codec.MethodLZ4))
	binary.LittleEndian.PutUint64(bomb[col[1]-12:], 1<<40)
	f.Add(bomb)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, img := range [][]byte{data, reseal(data)} {
			s, err := NewStore(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			dir := filepath.Join(s.Dir(), "t")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "block-0000000000000100-50-49.rbk"), img, 0o644); err != nil {
				t.Fatal(err)
			}
			w, err := s.Load("t", func(im Image, rb *rowblock.RowBlock, err error) error {
				if err != nil {
					return nil
				}
				if rb.Rows() != 50 {
					t.Fatalf("accepted a block of %d rows under a 50-row name", rb.Rows())
				}
				for i := range rb.Schema() {
					column.Decode(rb.Column(i)) //nolint:errcheck // only panics and giant allocations matter
				}
				return nil
			})
			if err != nil || w != 150 {
				t.Fatalf("Load = %d, %v, want the name's end row 150 and no error", w, err)
			}
		}
	})
}
