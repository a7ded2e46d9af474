package disk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
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

// verifyBlockContents checks that a recovered block holds the same logical
// rows as the original, independent of column order and re-encoding.
func verifyBlockContents(t *testing.T, got, want *rowblock.RowBlock) {
	t.Helper()
	if got.Rows() != want.Rows() {
		t.Fatalf("rows = %d, want %d", got.Rows(), want.Rows())
	}
	gt, err := got.Times()
	if err != nil {
		t.Fatal(err)
	}
	wt, _ := want.Times()
	if !reflect.DeepEqual(gt, wt) {
		t.Fatal("times differ")
	}
	for _, f := range want.Schema() {
		if f.Name == rowblock.TimeColumn {
			continue
		}
		gotCol, err := got.DecodeColumn(f.Name)
		if err != nil {
			t.Fatalf("column %q: %v", f.Name, err)
		}
		wantCol, _ := want.DecodeColumn(f.Name)
		switch wc := wantCol.(type) {
		case *column.Int64Column:
			if !reflect.DeepEqual(gotCol.(*column.Int64Column).Values, wc.Values) {
				t.Errorf("column %q values differ", f.Name)
			}
		case *column.Float64Column:
			if !reflect.DeepEqual(gotCol.(*column.Float64Column).Values, wc.Values) {
				t.Errorf("column %q values differ", f.Name)
			}
		case *column.StringColumn:
			gc := gotCol.(*column.StringColumn)
			for i := 0; i < wc.Len(); i++ {
				if gc.Value(i) != wc.Value(i) {
					t.Errorf("column %q row %d: %q != %q", f.Name, i, gc.Value(i), wc.Value(i))
					break
				}
			}
		case *column.StringSetColumn:
			gc := gotCol.(*column.StringSetColumn)
			for i := 0; i < wc.Len(); i++ {
				a, b := gc.Value(i), wc.Value(i)
				sort.Strings(a)
				sort.Strings(b)
				if !reflect.DeepEqual(a, b) {
					t.Errorf("column %q row %d: %v != %v", f.Name, i, a, b)
					break
				}
			}
		}
	}
}

func bothFormats(t *testing.T, fn func(t *testing.T, f Format)) {
	t.Run("row", func(t *testing.T) { fn(t, FormatRow) })
	t.Run("columnar", func(t *testing.T) { fn(t, FormatColumnar) })
}

func TestWriteLoadRoundTrip(t *testing.T) {
	bothFormats(t, func(t *testing.T, f Format) {
		s, err := NewStore(t.TempDir(), 0, f)
		if err != nil {
			t.Fatal(err)
		}
		orig := []*rowblock.RowBlock{
			buildBlock(t, 200, 1000),
			buildBlock(t, 100, 2000),
		}
		for _, rb := range orig {
			if err := s.WriteBlock("events", rb); err != nil {
				t.Fatal(err)
			}
		}
		var got []*rowblock.RowBlock
		if err := s.LoadTable("events", func(rb *rowblock.RowBlock) error {
			got = append(got, rb)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 {
			t.Fatalf("loaded %d blocks", len(got))
		}
		for i := range got {
			verifyBlockContents(t, got[i], orig[i])
		}
	})
}

func TestLoadMissingTable(t *testing.T) {
	s, err := NewStore(t.TempDir(), 0, FormatRow)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadTable("nope", func(*rowblock.RowBlock) error { return nil }); !errors.Is(err, ErrNoTable) {
		t.Errorf("err = %v", err)
	}
}

func TestTables(t *testing.T) {
	s, err := NewStore(t.TempDir(), 0, FormatRow)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"zeta", "alpha", "weird/name"} {
		if err := s.WriteBlock(name, buildBlock(t, 10, 0)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Tables()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha", "weird/name", "zeta"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tables = %v, want %v", got, want)
	}
}

func TestSequenceNumbersPersist(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir, 0, FormatRow)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteBlock("t", buildBlock(t, 10, 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteBlock("t", buildBlock(t, 10, 200)); err != nil {
		t.Fatal(err)
	}
	// A fresh store (new process) must continue the sequence, not clobber.
	s2, err := NewStore(dir, 0, FormatRow)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.WriteBlock("t", buildBlock(t, 10, 300)); err != nil {
		t.Fatal(err)
	}
	count := 0
	lastMax := int64(-1)
	if err := s2.LoadTable("t", func(rb *rowblock.RowBlock) error {
		count++
		if rb.Header().MaxTime <= lastMax {
			t.Errorf("blocks out of order: %d after %d", rb.Header().MaxTime, lastMax)
		}
		lastMax = rb.Header().MaxTime
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Errorf("loaded %d blocks", count)
	}
}

func TestExpireTable(t *testing.T) {
	s, err := NewStore(t.TempDir(), 0, FormatRow)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.WriteBlock("t", buildBlock(t, 10, int64(i*1000))); err != nil {
			t.Fatal(err)
		}
	}
	// Blocks have max times 9, 1009, 2009. Cutoff 1500 removes two.
	removed, err := s.ExpireTable("t", 1500)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Errorf("removed = %d", removed)
	}
	count := 0
	if err := s.LoadTable("t", func(*rowblock.RowBlock) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("remaining = %d", count)
	}
}

func TestDropOldest(t *testing.T) {
	s, err := NewStore(t.TempDir(), 0, FormatColumnar)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.WriteBlock("t", buildBlock(t, 10, int64(i*100))); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := s.DropOldest("t", 3)
	if err != nil || removed != 3 {
		t.Fatalf("removed %d, %v", removed, err)
	}
	var minTimes []int64
	if err := s.LoadTable("t", func(rb *rowblock.RowBlock) error {
		minTimes = append(minTimes, rb.Header().MinTime)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(minTimes) != 1 || minTimes[0] != 300 {
		t.Errorf("kept wrong blocks: %v", minTimes)
	}
}

func TestSyncTable(t *testing.T) {
	s, err := NewStore(t.TempDir(), 0, FormatRow)
	if err != nil {
		t.Fatal(err)
	}
	st := &stubSyncable{name: "t", blocks: []*rowblock.RowBlock{
		buildBlock(t, 20, 0), buildBlock(t, 20, 100),
	}}
	n, err := s.SyncTable(st)
	if err != nil || n != 2 {
		t.Fatalf("synced %d, %v", n, err)
	}
	if st.synced != 2 {
		t.Errorf("watermark = %d", st.synced)
	}
	// Second sync has nothing to do.
	n, err = s.SyncTable(st)
	if err != nil || n != 0 {
		t.Errorf("resync: %d, %v", n, err)
	}
}

type stubSyncable struct {
	name   string
	blocks []*rowblock.RowBlock
	synced int
}

func (s *stubSyncable) Name() string { return s.name }
func (s *stubSyncable) UnsyncedBlocks() []*rowblock.RowBlock {
	return s.blocks[s.synced:]
}
func (s *stubSyncable) MarkSynced(n int) { s.synced += n }

func TestRowFormatCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir, 0, FormatRow)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteBlock("t", buildBlock(t, 50, 0)); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(s.Dir(), "t", "*.row"))
	if err != nil || len(files) != 1 {
		t.Fatalf("files = %v, %v", files, err)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	// Every single-byte flip must be rejected by the CRC.
	for _, i := range []int{0, 5, 10, 30, len(raw) / 2, len(raw) - 5} {
		bad := append([]byte(nil), raw...)
		bad[i] ^= 0x01
		if err := os.WriteFile(files[0], bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := s.LoadTable("t", func(*rowblock.RowBlock) error { return nil }); err == nil {
			t.Errorf("flip at %d accepted", i)
		}
	}
	// Truncation too.
	if err := os.WriteFile(files[0], raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadTable("t", func(*rowblock.RowBlock) error { return nil }); err == nil {
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
		if _, err := decodeRowFormat(data); !errors.Is(err, ErrCorruptFile) {
			t.Errorf("%s: %v, want ErrCorruptFile", name, err)
		}
	}
}

func TestNoTornWrites(t *testing.T) {
	s, err := NewStore(t.TempDir(), 0, FormatRow)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteBlock("t", buildBlock(t, 10, 0)); err != nil {
		t.Fatal(err)
	}
	tmps, err := filepath.Glob(filepath.Join(s.Dir(), "t", "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Errorf("temp files left: %v", tmps)
	}
}

func TestTableNameEncoding(t *testing.T) {
	cases := []string{"simple", "with space", "with/slash", "uniçode", "dots.and.things"}
	for _, name := range cases {
		if got := decodeTableName(encodeTableName(name)); got != name {
			t.Errorf("round trip %q -> %q", name, got)
		}
	}
	if encodeTableName("a/b") == encodeTableName("a_b") {
		t.Error("encoding collision")
	}
}

func TestFormatStrings(t *testing.T) {
	if FormatRow.String() != "row" || FormatColumnar.String() != "columnar" {
		t.Error("format names wrong")
	}
}
