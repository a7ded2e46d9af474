package rowblock

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"scuba/internal/column"
	"scuba/internal/layout"
)

// buildBlock seals a small block with int, float, string and set columns.
func buildBlock(t *testing.T, rows int) *RowBlock {
	t.Helper()
	b := NewBuilder(1700000000)
	for i := 0; i < rows; i++ {
		err := b.AddRow(Row{
			Time: 1700000000 + int64(i),
			Cols: map[string]Value{
				"latency_ms": Int64Value(int64(10 + i%50)),
				"cpu":        Float64Value(float64(i) * 0.5),
				"service":    StringValue(fmt.Sprintf("svc-%d", i%3)),
				"tags":       SetValue("prod", fmt.Sprintf("tier%d", i%2)),
			},
		})
		if err != nil {
			t.Fatalf("AddRow %d: %v", i, err)
		}
	}
	rb, err := b.Seal()
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	return rb
}

func TestBuilderSeal(t *testing.T) {
	rb := buildBlock(t, 100)
	h := rb.Header()
	if h.RowCount != 100 {
		t.Errorf("RowCount = %d", h.RowCount)
	}
	if h.MinTime != 1700000000 || h.MaxTime != 1700000099 {
		t.Errorf("time range [%d, %d]", h.MinTime, h.MaxTime)
	}
	if h.Created != 1700000000 {
		t.Errorf("Created = %d", h.Created)
	}
	if rb.NumColumns() != 5 { // time + 4 data columns
		t.Errorf("NumColumns = %d", rb.NumColumns())
	}
	if rb.Schema()[0].Name != TimeColumn {
		t.Errorf("first column = %q", rb.Schema()[0].Name)
	}
	var total int64
	for i := 0; i < rb.NumColumns(); i++ {
		total += int64(rb.Column(i).Size())
	}
	if total != h.Size {
		t.Errorf("header Size %d != sum of blobs %d", h.Size, total)
	}
}

func TestColumnValues(t *testing.T) {
	rb := buildBlock(t, 10)
	times, err := rb.Times(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, ts := range times {
		if ts != 1700000000+int64(i) {
			t.Errorf("time[%d] = %d", i, ts)
		}
	}
	col, err := rb.DecodeColumn("service")
	if err != nil {
		t.Fatal(err)
	}
	sc := col.(*column.StringColumn)
	for i := 0; i < 10; i++ {
		if want := fmt.Sprintf("svc-%d", i%3); sc.Value(i) != want {
			t.Errorf("service[%d] = %q, want %q", i, sc.Value(i), want)
		}
	}
	if _, err := rb.DecodeColumn("nope"); err == nil {
		t.Error("decoding missing column succeeded")
	}
}

func TestSparseColumnsBackfill(t *testing.T) {
	b := NewBuilder(1)
	// First row has only colA; colB appears at row 2; row 3 omits colA.
	if err := b.AddRow(Row{Time: 1, Cols: map[string]Value{"a": Int64Value(11)}}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddRow(Row{Time: 2, Cols: map[string]Value{"a": Int64Value(22), "b": StringValue("x")}}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddRow(Row{Time: 3, Cols: map[string]Value{"b": StringValue("y")}}); err != nil {
		t.Fatal(err)
	}
	rb, err := b.Seal()
	if err != nil {
		t.Fatal(err)
	}
	aCol, err := rb.DecodeColumn("a")
	if err != nil {
		t.Fatal(err)
	}
	if got := aCol.(*column.Int64Column).Values; !reflect.DeepEqual(got, []int64{11, 22, 0}) {
		t.Errorf("a = %v", got)
	}
	bCol, err := rb.DecodeColumn("b")
	if err != nil {
		t.Fatal(err)
	}
	sc := bCol.(*column.StringColumn)
	if sc.Value(0) != "" || sc.Value(1) != "x" || sc.Value(2) != "y" {
		t.Errorf("b = %q %q %q", sc.Value(0), sc.Value(1), sc.Value(2))
	}
}

func TestTypeConflict(t *testing.T) {
	b := NewBuilder(1)
	if err := b.AddRow(Row{Time: 1, Cols: map[string]Value{"x": Int64Value(1)}}); err != nil {
		t.Fatal(err)
	}
	err := b.AddRow(Row{Time: 2, Cols: map[string]Value{"x": StringValue("oops")}})
	if !errors.Is(err, ErrTypeConflict) {
		t.Errorf("err = %v", err)
	}
	// The failed row must not have been committed.
	if b.Rows() != 1 {
		t.Errorf("Rows = %d after rejected row", b.Rows())
	}
	rb, err := b.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if rb.Rows() != 1 {
		t.Errorf("sealed rows = %d", rb.Rows())
	}
}

func TestReservedTimeName(t *testing.T) {
	b := NewBuilder(1)
	err := b.AddRow(Row{Time: 1, Cols: map[string]Value{"time": Int64Value(9)}})
	if !errors.Is(err, ErrReservedName) {
		t.Errorf("err = %v", err)
	}
}

func TestRowCap(t *testing.T) {
	b := NewBuilder(1)
	for i := 0; i < MaxRows; i++ {
		if err := b.AddRow(Row{Time: int64(i)}); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
	}
	if !b.Full() {
		t.Error("builder not full at MaxRows")
	}
	if err := b.AddRow(Row{Time: 0}); !errors.Is(err, ErrFull) {
		t.Errorf("err = %v", err)
	}
}

func TestSealEmpty(t *testing.T) {
	if _, err := NewBuilder(1).Seal(); err == nil {
		t.Error("sealing empty builder succeeded")
	}
}

func TestOverlaps(t *testing.T) {
	rb := buildBlock(t, 10) // times 1700000000..1700000009
	cases := []struct {
		from, to int64
		want     bool
	}{
		{1700000000, 1700000009, true},
		{1699999990, 1699999999, false},
		{1700000010, 1700000020, false},
		{1700000005, 1700000005, true},
		{1699999999, 1700000000, true},
		{1700000009, 1700000100, true},
	}
	for _, c := range cases {
		if got := rb.Overlaps(c.from, c.to); got != c.want {
			t.Errorf("Overlaps(%d, %d) = %v", c.from, c.to, got)
		}
	}
}

func TestImageRoundTrip(t *testing.T) {
	rb := buildBlock(t, 500)
	img := rb.AppendImage(nil)
	got, consumed, err := DecodeImage(img)
	if err != nil {
		t.Fatal(err)
	}
	if consumed != len(img) {
		t.Errorf("consumed %d of %d", consumed, len(img))
	}
	if got.Header() != rb.Header() {
		t.Errorf("header: got %+v want %+v", got.Header(), rb.Header())
	}
	if !reflect.DeepEqual(got.Schema(), rb.Schema()) {
		t.Errorf("schema mismatch: %v vs %v", got.Schema(), rb.Schema())
	}
	wantTimes, _ := rb.Times(nil)
	gotTimes, err := got.Times(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotTimes, wantTimes) {
		t.Error("times differ after image round trip")
	}
}

func TestImageZeroCopy(t *testing.T) {
	rb := buildBlock(t, 50)
	img := rb.AppendImage(nil)
	got, _, err := DecodeImage(img)
	if err != nil {
		t.Fatal(err)
	}
	// Zero-copy blobs must alias the image buffer.
	blob := got.Column(0).Blob()
	found := false
	for i := 0; i+len(blob) <= len(img); i++ {
		if &img[i] == &blob[0] {
			found = true
			break
		}
	}
	if !found {
		t.Error("zero-copy decode did not alias image buffer")
	}
}

// openImage opens rb's image as the shm view does: the prefix checked against
// the CRC its writer records, the columns left to the first reader.
func openImage(t *testing.T, rb *RowBlock) *RowBlock {
	t.Helper()
	opened, _, err := OpenImage(rb.AppendImage(nil), PrefixCRC(rb.ImagePrefix()))
	if err != nil {
		t.Fatal(err)
	}
	return opened
}

// TestCloneToHeapVerifiesItsCopy: a clone owns fresh memory, and damage the
// source carries — the case of a mapped shm block no reader has checked — is
// caught by the clone's per-column check, as a DamagedError naming the source.
func TestCloneToHeapVerifiesItsCopy(t *testing.T) {
	rb := buildBlock(t, 300)
	mapped := openImage(t, rb)
	clone, err := mapped.CloneToHeap()
	if err != nil || mapped.Verify() != nil {
		t.Fatal(err)
	}
	if clone.Header() != rb.Header() || clone.Source() != nil || clone.Verify() != nil {
		t.Errorf("clone header %+v source %v", clone.Header(), clone.Source())
	}
	for i := 0; i < clone.NumColumns(); i++ {
		got, src := clone.Column(i).Blob(), mapped.Column(i).Blob()
		if !bytes.Equal(got, src) || &got[0] == &src[0] {
			t.Errorf("column %d: clone differs from or aliases its source", i)
		}
	}
	data := mapped.Column(1).Data()
	data[len(data)/2] ^= 0x10
	var dmg *DamagedError
	if _, err := mapped.CloneToHeap(); !errors.As(err, &dmg) || dmg.Block != mapped || !errors.Is(err, layout.ErrChecksum) {
		t.Fatalf("clone of a damaged block = %v, want a DamagedError of it wrapping %v", err, layout.ErrChecksum)
	}
}

// TestOpenImageChecksOnFirstRead: OpenImage checks the prefix against its CRC
// and no column; the first column read checks every column once, and a
// damaged block fails every read after, as a DamagedError naming it.
func TestOpenImageChecksOnFirstRead(t *testing.T) {
	rb := buildBlock(t, 300)
	img, crc := rb.AppendImage(nil), PrefixCRC(rb.ImagePrefix())
	for _, at := range []int{5, 44, len(rb.ImagePrefix()) - 1} {
		bad := append([]byte(nil), img...)
		bad[at] ^= 0x01
		if _, _, err := OpenImage(bad, crc); !errors.Is(err, ErrImageCorrupt) {
			t.Errorf("prefix byte %d flipped: open = %v, want ErrImageCorrupt", at, err)
		}
	}
	if rb.Verify() != nil {
		t.Fatal("a sealed block has nothing to check")
	}
	good, _, err := OpenImage(img, crc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := good.Times(nil); err != nil || good.Verify() != nil {
		t.Fatalf("first read of a whole block: %v", err)
	}

	img[len(img)-20] ^= 0x40 // in the last column's blob
	damaged, _, err := OpenImage(img, crc)
	if err != nil {
		t.Fatalf("column damage is not the open's to see: %v", err)
	}
	var dmg *DamagedError
	if _, err := damaged.Times(nil); !errors.As(err, &dmg) || dmg.Block != damaged {
		t.Fatalf("time column of a damaged block = %v, want a DamagedError of it", err)
	}
	if _, err := damaged.DecodeColumn(damaged.Schema()[1].Name); !errors.As(err, &dmg) {
		t.Fatalf("second read of a damaged block = %v, want a DamagedError", err)
	}
}

// TestImagePrefixThenColumns is the shutdown copy's view of an image: the
// prefix, taken before any column is released, followed by each column's blob
// — released right behind its copy — is the image AppendImage builds.
func TestImagePrefixThenColumns(t *testing.T) {
	rb := buildBlock(t, 200)
	want := rb.AppendImage(nil)
	got := rb.ImagePrefix()
	for i := 0; i < rb.NumColumns(); i++ {
		got = append(got, rb.Column(i).Blob()...)
		rb.ReleaseColumn(i)
	}
	for i := 0; i < rb.NumColumns(); i++ {
		if rb.Column(i) != nil {
			t.Errorf("column %d not released", i)
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatal("prefix + columns differ from AppendImage")
	}
	if dec, _, err := DecodeImage(got); err != nil || dec.Rows() != 200 {
		t.Fatalf("decode = %v, %v", dec, err)
	}
}

func TestDecodeImageCorrupt(t *testing.T) {
	rb := buildBlock(t, 100)
	img := rb.AppendImage(nil)

	if _, _, err := DecodeImage(img[:20]); err == nil {
		t.Error("truncated image decoded")
	}
	bad := append([]byte(nil), img...)
	bad[0] ^= 0xff
	if _, _, err := DecodeImage(bad); err == nil {
		t.Error("bad magic decoded")
	}
	// Corrupt a byte inside a column blob: the RBC checksum must catch it.
	bad2 := append([]byte(nil), img...)
	bad2[len(bad2)-20] ^= 0xff
	if _, _, err := DecodeImage(bad2); err == nil {
		t.Error("corrupt column decoded")
	}
}

func TestDecodeImageTrailingData(t *testing.T) {
	// Images are read out of larger segments; trailing bytes must be ignored
	// and the consumed count must be exact.
	rb := buildBlock(t, 30)
	img := rb.AppendImage(nil)
	padded := append(append([]byte(nil), img...), 0xde, 0xad, 0xbe, 0xef)
	got, consumed, err := DecodeImage(padded)
	if err != nil {
		t.Fatal(err)
	}
	if consumed != len(img) {
		t.Errorf("consumed = %d, want %d", consumed, len(img))
	}
	if got.Rows() != 30 {
		t.Errorf("rows = %d", got.Rows())
	}
}

func TestCheckColumns(t *testing.T) {
	rb := buildBlock(t, 10)
	hdr := rb.Header()
	schema := rb.Schema()
	cols := make([]*layout.RBC, rb.NumColumns())
	for i := range cols {
		cols[i] = rb.Column(i)
	}
	if err := checkColumns(hdr, schema, cols); err != nil {
		t.Fatalf("a sealed block's own columns: %v", err)
	}
	if err := checkColumns(hdr, schema, cols[:len(cols)-1]); err == nil {
		t.Error("mismatched column count accepted")
	}
	badHdr := hdr
	badHdr.RowCount = 99
	if err := checkColumns(badHdr, schema, cols); err == nil {
		t.Error("mismatched row count accepted")
	}
	badSchema := append(Schema(nil), schema...)
	badSchema[0].Name = "nottime"
	if err := checkColumns(hdr, badSchema, cols); err == nil {
		t.Error("missing time column accepted")
	}
}

func TestSchemaIndex(t *testing.T) {
	s := Schema{{Name: "time"}, {Name: "a"}, {Name: "b"}}
	if s.Index("a") != 1 || s.Index("time") != 0 || s.Index("zz") != -1 {
		t.Errorf("Index results: %d %d %d", s.Index("a"), s.Index("time"), s.Index("zz"))
	}
}

func TestRawBytesGrows(t *testing.T) {
	b := NewBuilder(1)
	if err := b.AddRow(Row{Time: 1, Cols: map[string]Value{"s": StringValue("hello world")}}); err != nil {
		t.Fatal(err)
	}
	if b.RawBytes() < 8+11 {
		t.Errorf("RawBytes = %d", b.RawBytes())
	}
}

func TestByteCapSealsEarly(t *testing.T) {
	// §2.1: the row block is capped at 1 GB pre-compression even when it
	// holds fewer than 65K rows. Exercised here with a lowered cap.
	b := NewBuilder(1)
	b.SetByteCapForTest(1 << 12) // 4 KiB
	big := make([]byte, 512)
	for i := range big {
		big[i] = 'x'
	}
	rows := 0
	for !b.Full() {
		err := b.AddRow(Row{Time: int64(rows), Cols: map[string]Value{
			"payload": StringValue(string(big)),
		}})
		if err != nil {
			t.Fatal(err)
		}
		rows++
		if rows > MaxRows {
			t.Fatal("byte cap never triggered")
		}
	}
	if rows >= MaxRows {
		t.Fatalf("filled by rows (%d), not bytes", rows)
	}
	if err := b.AddRow(Row{Time: 0}); !errors.Is(err, ErrFull) {
		t.Errorf("err = %v", err)
	}
	rb, err := b.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if rb.Rows() != rows {
		t.Errorf("sealed rows = %d, want %d", rb.Rows(), rows)
	}
}
