package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"scuba/internal/column"
	"scuba/internal/layout"
	"scuba/internal/rowblock"
)

func buildBlock(t *testing.T, rows int, startTime int64) *rowblock.RowBlock {
	t.Helper()
	b := rowblock.NewBuilder(startTime)
	for i := 0; i < rows; i++ {
		err := b.AddRow(rowblock.Row{
			Time: startTime + int64(i),
			Cols: map[string]rowblock.Value{
				"service": rowblock.StringValue(fmt.Sprintf("svc-%d", i%5)),
				"latency": rowblock.Int64Value(int64(i * 3)),
				"cpu":     rowblock.Float64Value(float64(i) / 7),
				"tags":    rowblock.SetValue("prod", fmt.Sprintf("shard%d", i%2)),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	rb, err := b.Seal()
	if err != nil {
		t.Fatal(err)
	}
	return rb
}

func TestRowFormatCorruption(t *testing.T) {
	raw, err := encodeRowFormat(buildBlock(t, 50, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Every single-byte flip must be rejected by the CRC.
	for _, i := range []int{0, 5, 10, 30, len(raw) / 2, len(raw) - 5} {
		bad := append([]byte(nil), raw...)
		bad[i] ^= 0x01
		if _, err := decodeRowFormat(bad); err == nil {
			t.Errorf("flip at %d accepted", i)
		}
	}
	// Truncation too.
	if _, err := decodeRowFormat(raw[:len(raw)/2]); err == nil {
		t.Error("truncated file accepted")
	}
}

// TestRowFormatRejectsBadSchema covers checksum-valid files whose schema no
// block can hold: a time column that is not an integer, a column named twice.
func TestRowFormatRejectsBadSchema(t *testing.T) {
	build := func(rows []byte, fields ...rowblock.Field) []byte {
		b := binary.LittleEndian.AppendUint32(nil, rowMagic)
		b = binary.LittleEndian.AppendUint32(b, rowVersion)
		b = binary.LittleEndian.AppendUint64(b, 1) // one row
		b = binary.LittleEndian.AppendUint64(b, 7) // created
		b = binary.LittleEndian.AppendUint16(b, uint16(len(fields)))
		for _, f := range fields {
			b = binary.LittleEndian.AppendUint16(b, uint16(len(f.Name)))
			b = append(append(b, f.Name...), byte(f.Type))
		}
		b = append(b, rows...)
		return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crcTable))
	}
	tm := rowblock.Field{Name: rowblock.TimeColumn, Type: layout.TypeTime}
	a := rowblock.Field{Name: "a", Type: layout.TypeInt64}
	if _, err := decodeRowFormat(build([]byte{2, 4}, tm, a)); err != nil {
		t.Fatalf("well-formed file: %v", err)
	}
	for name, data := range map[string][]byte{
		"float time":       build(make([]byte, 8), rowblock.Field{Name: rowblock.TimeColumn, Type: layout.TypeFloat64}),
		"duplicate column": build([]byte{2, 4, 6}, tm, a, a),
	} {
		if _, err := decodeRowFormat(data); !errors.Is(err, errCorruptFile) {
			t.Errorf("%s: %v, want errCorruptFile", name, err)
		}
	}
}

// TestRowFormatProperty round-trips randomized blocks through the
// row-oriented disk format: the translate path (decode -> rows -> rebuild
// dictionaries -> re-encode) must reproduce every value exactly.
func TestRowFormatProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 20; trial++ {
		builder := rowblock.NewBuilder(rng.Int63n(1 << 40))
		rows := 1 + rng.Intn(300)
		for r := 0; r < rows; r++ {
			row := rowblock.Row{Time: rng.Int63n(1 << 40), Cols: map[string]rowblock.Value{}}
			if rng.Intn(3) > 0 {
				row.Cols["s"] = rowblock.StringValue(fmt.Sprintf("str-%d", rng.Intn(40)))
			}
			if rng.Intn(3) > 0 {
				row.Cols["i"] = rowblock.Int64Value(rng.Int63() - rng.Int63())
			}
			if rng.Intn(3) == 0 {
				row.Cols["f"] = rowblock.Float64Value(rng.NormFloat64() * 1e6)
			}
			if rng.Intn(4) == 0 {
				set := make([]string, rng.Intn(4))
				for j := range set {
					set[j] = fmt.Sprintf("tag%d", rng.Intn(8))
				}
				row.Cols["set"] = rowblock.SetValue(set...)
			}
			if err := builder.AddRow(row); err != nil {
				t.Fatal(err)
			}
		}
		orig, err := builder.Seal()
		if err != nil {
			t.Fatal(err)
		}

		data, err := encodeRowFormat(orig)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeRowFormat(data)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.Rows() != orig.Rows() {
			t.Fatalf("trial %d: rows %d != %d", trial, got.Rows(), orig.Rows())
		}
		gt, _ := got.Times(nil)
		ot, _ := orig.Times(nil)
		if !reflect.DeepEqual(gt, ot) {
			t.Fatalf("trial %d: times differ", trial)
		}
		for _, f := range orig.Schema() {
			if f.Name == rowblock.TimeColumn {
				continue
			}
			wantCol, err := orig.DecodeColumn(f.Name)
			if err != nil {
				t.Fatal(err)
			}
			gotCol, err := got.DecodeColumn(f.Name)
			if err != nil {
				t.Fatalf("trial %d column %q: %v", trial, f.Name, err)
			}
			switch wc := wantCol.(type) {
			case *column.Int64Column:
				if !reflect.DeepEqual(gotCol.(*column.Int64Column).Values, wc.Values) {
					t.Fatalf("trial %d column %q differs", trial, f.Name)
				}
			case *column.Float64Column:
				if !reflect.DeepEqual(gotCol.(*column.Float64Column).Values, wc.Values) {
					t.Fatalf("trial %d column %q differs", trial, f.Name)
				}
			case *column.StringColumn:
				gc := gotCol.(*column.StringColumn)
				for i := 0; i < wc.Len(); i++ {
					if gc.Value(i) != wc.Value(i) {
						t.Fatalf("trial %d column %q row %d differs", trial, f.Name, i)
					}
				}
			case *column.StringSetColumn:
				gotSets, gerr := gotCol.(*column.StringSetColumn).Values()
				wantSets, werr := wc.Values()
				if gerr != nil || werr != nil {
					t.Fatalf("trial %d column %q: %v, %v", trial, f.Name, gerr, werr)
				}
				for i := 0; i < wc.Len(); i++ {
					a, b := gotSets[i], wantSets[i]
					sort.Strings(a)
					sort.Strings(b)
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("trial %d column %q row %d differs", trial, f.Name, i)
					}
				}
			}
		}
	}
}

// FuzzDecodeRowFormat feeds arbitrary bytes to the bench-only row-format
// decoder. It must reject garbage with an error, never panic or balloon
// memory.
func FuzzDecodeRowFormat(f *testing.F) {
	b := rowblock.NewBuilder(7)
	for i := 0; i < 50; i++ {
		b.AddRow(rowblock.Row{Time: int64(i), Cols: map[string]rowblock.Value{ //nolint:errcheck
			"s": rowblock.StringValue("x"),
			"n": rowblock.Int64Value(int64(i)),
			"f": rowblock.Float64Value(float64(i)),
			"t": rowblock.SetValue("a", "b"),
		}})
	}
	rb, err := b.Seal()
	if err != nil {
		f.Fatal(err)
	}
	valid, err := encodeRowFormat(rb)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeRowFormat(data)
		if err == nil && got == nil {
			t.Fatal("nil block without error")
		}
		if err == nil {
			if _, terr := got.Times(nil); terr != nil {
				t.Fatalf("accepted block has broken time column: %v", terr)
			}
		}
	})
}
