package shm

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"scuba/internal/column"
	"scuba/internal/rowblock"
)

var update = flag.Bool("update", false, "rewrite testdata/segment-v3.golden")

// goldenRows is the source of the testdata/segment-v*.golden fixtures: block
// b of 3, 40 rows each, one column of every type beside the time column.
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

// TestGoldenSegmentV1: the fixture was written by CreateTableSegment /
// WriteBlock / Finish at layout version 2, with a payload CRC (segment
// "tbl-golden" of table "golden", blocks created at 1700000100+b), and must
// never be regenerated. This binary refuses it as version skew and leaves it
// in place — the metadata's version check sends such a start to the store
// before any segment is opened (DESIGN.md §13).
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
		if _, err := OpenTableSegmentView(m, SegmentInfo{Table: "golden", Segment: "tbl-golden"}); !errors.Is(err, ErrVersionSkew) {
			t.Fatalf("open of a layout-2 segment = %v, want %v", err, ErrVersionSkew)
		}
		if !m.SegmentExists("tbl-golden") {
			t.Fatal("the refused segment was removed")
		}
	})
}

// TestGoldenSegmentV3 pins the table segment layout of LayoutVersion 3: a
// block index with a prefix CRC per block under an index CRC. The fixture
// is the one TestWriterReproducesGoldenSegmentV3 checks the writer against;
// regenerate it (-update) only with a LayoutVersion bump.
func TestGoldenSegmentV3(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "segment-v3.golden"))
	if err != nil {
		t.Fatal(err)
	}
	runBothModes(t, func(t *testing.T, noMmap bool) {
		m := newTestManager(t, 1, noMmap)
		if err := os.WriteFile(m.segmentPath("tbl-golden"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		restored, err := drainView(openView(t, m, "tbl-golden", "golden"))
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

// TestWriterReproducesGoldenSegmentV3: the writer lays down, byte for byte,
// the layout-3 fixture — the format did not move, so a segment crosses a
// binary upgrade between two layout-3 releases in either direction.
func TestWriterReproducesGoldenSegmentV3(t *testing.T) {
	path := filepath.Join("testdata", "segment-v3.golden")
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
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("segment is %d bytes, golden %d, or they differ", len(got), len(want))
	}
}
