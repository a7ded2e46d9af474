package shm

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"scuba/internal/column"
	"scuba/internal/rowblock"
)

// goldenRows is the source of testdata/segment-v1.golden: block b of 3, 40
// rows each, one column of every type beside the time column.
func goldenRows(b int) []rowblock.Row {
	rows := make([]rowblock.Row, 40)
	for i := range rows {
		n := b*len(rows) + i
		rows[i] = rowblock.Row{
			Time: 1700000000 + int64(n),
			Cols: map[string]rowblock.Value{
				"status":  rowblock.Int64Value(200 + int64(n%4)*100),
				"latency": rowblock.Float64Value(float64(n) * 1.5),
				"service": rowblock.StringValue([]string{"web", "api", "batch"}[n%3]),
				"tags":    rowblock.SetValue(fmt.Sprintf("t%d", n%5), fmt.Sprintf("b%d", b)),
			},
		}
	}
	return rows
}

// TestGoldenSegmentV1 pins the SGT1 table segment layout. The fixture was
// written by CreateTableSegment / WriteBlock / Finish as of the commit before
// the mapped view became the only reader (segment "tbl-golden" of table
// "golden", blocks created at 1700000100+b) and must never be regenerated: a
// new binary reads the segments the old binary's shutdown left in shared
// memory, or the restart takes the disk path.
func TestGoldenSegmentV1(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "segment-v1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	runBothModes(t, func(t *testing.T, noMmap bool) {
		m := newTestManager(t, 1, noMmap)
		if err := os.WriteFile(m.segmentPath("tbl-golden"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		restored, err := drainView(openToDrain(t, m, "tbl-golden", "golden"))
		if err != nil {
			t.Fatal(err)
		}
		if len(restored) != 3 {
			t.Fatalf("%d blocks, want 3", len(restored))
		}
		for b, rb := range restored {
			want := goldenRows(b)
			hdr := rb.Header()
			if hdr.RowCount != len(want) || hdr.MinTime != want[0].Time ||
				hdr.MaxTime != want[len(want)-1].Time || hdr.Created != 1700000100+int64(b) {
				t.Errorf("block %d header = %+v", b, hdr)
			}
			cols := make(map[string]column.Column)
			for _, f := range rb.Schema() {
				if cols[f.Name], err = rb.DecodeColumn(f.Name); err != nil {
					t.Fatalf("block %d column %s: %v", b, f.Name, err)
				}
			}
			if len(cols) != 5 {
				t.Fatalf("block %d schema = %v", b, rb.Schema())
			}
			tags, err := cols["tags"].(*column.StringSetColumn).Values()
			if err != nil {
				t.Fatalf("block %d tags: %v", b, err)
			}
			for i, row := range want {
				got := rowblock.Row{
					Time: cols[rowblock.TimeColumn].(*column.Int64Column).Values[i],
					Cols: map[string]rowblock.Value{
						"status":  rowblock.Int64Value(cols["status"].(*column.Int64Column).Values[i]),
						"latency": rowblock.Float64Value(cols["latency"].(*column.Float64Column).Values[i]),
						"service": rowblock.StringValue(cols["service"].(*column.StringColumn).Value(i)),
						"tags":    rowblock.SetValue(tags[i]...),
					},
				}
				if !reflect.DeepEqual(got, row) {
					t.Fatalf("block %d row %d = %+v, want %+v", b, i, got, row)
				}
			}
		}
	})
}

// TestWriterReproducesGoldenSegmentV1: the appending writer lays down, byte for
// byte, the segment the mapped read-write writer before it did — the format
// did not move, so a segment crosses a binary upgrade in either direction.
func TestWriterReproducesGoldenSegmentV1(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "segment-v1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, 1, false)
	w, err := CreateTableSegment(m, "tbl-golden", "golden")
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 3; b++ {
		builder := rowblock.NewBuilder(1700000100 + int64(b))
		for _, row := range goldenRows(b) {
			if err := builder.AddRow(row); err != nil {
				t.Fatal(err)
			}
		}
		rb, err := builder.Seal()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteBlock(rb, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(m.segmentPath("tbl-golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("segment is %d bytes, golden %d, or they differ", len(got), len(want))
	}
}
