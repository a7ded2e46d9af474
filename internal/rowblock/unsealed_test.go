package rowblock

import (
	"reflect"
	"testing"

	"scuba/internal/column"
	"scuba/internal/layout"
)

func TestSnapshotEmpty(t *testing.T) {
	b := NewBuilder(1)
	if v := b.Snapshot(); v != nil {
		t.Errorf("empty snapshot = %v", v)
	}
}

func TestSnapshotContents(t *testing.T) {
	b := NewBuilder(1)
	rows := []Row{
		{Time: 10, Cols: map[string]Value{"s": StringValue("a"), "i": Int64Value(1), "f": Float64Value(0.5), "set": SetValue("x")}},
		{Time: 30, Cols: map[string]Value{"s": StringValue("b"), "i": Int64Value(2), "f": Float64Value(1.5), "set": SetValue("x", "y")}},
		{Time: 20, Cols: map[string]Value{"s": StringValue("a"), "i": Int64Value(3), "f": Float64Value(2.5), "set": SetValue()}},
	}
	for _, r := range rows {
		if err := b.AddRow(r); err != nil {
			t.Fatal(err)
		}
	}
	v := b.Snapshot()
	if v.Rows() != 3 {
		t.Fatalf("Rows = %d", v.Rows())
	}
	times, err := v.Times(nil)
	if err != nil || !reflect.DeepEqual(times, []int64{10, 30, 20}) {
		t.Fatalf("times = %v, %v", times, err)
	}
	if !v.Overlaps(15, 25) || v.Overlaps(31, 40) || v.Overlaps(0, 9) {
		t.Error("Overlaps wrong")
	}
	if !v.HasColumn("s") || v.HasColumn("nope") {
		t.Error("HasColumn wrong")
	}
	if v.Schema()[0].Name != TimeColumn {
		t.Errorf("schema = %v", v.Schema())
	}

	sCol, err := v.DecodeColumn("s")
	if err != nil {
		t.Fatal(err)
	}
	sc := sCol.(*column.StringColumn)
	if sc.Value(0) != "a" || sc.Value(1) != "b" || sc.Value(2) != "a" {
		t.Error("string column wrong")
	}
	iCol, _ := v.DecodeColumn("i")
	if got := iCol.(*column.Int64Column).Values; !reflect.DeepEqual(got, []int64{1, 2, 3}) {
		t.Errorf("int column = %v", got)
	}
	fCol, _ := v.DecodeColumn("f")
	if got := fCol.(*column.Float64Column).Values; !reflect.DeepEqual(got, []float64{0.5, 1.5, 2.5}) {
		t.Errorf("float column = %v", got)
	}
	setCol, _ := v.DecodeColumn("set")
	ssc := setCol.(*column.StringSetColumn)
	if rows, err := ssc.SelectContains("y", []uint32{0, 1, 2}, nil); err != nil || !reflect.DeepEqual(rows, []uint32{1}) {
		t.Errorf("rows of the set column containing y = %v, %v", rows, err)
	}
	if missing, err := v.DecodeColumn("ghost"); err != nil || missing != nil {
		t.Errorf("missing column = %v, %v", missing, err)
	}
	// The time column is reachable as a column too.
	tCol, _ := v.DecodeColumn(TimeColumn)
	if tCol.(*column.Int64Column).Type() != layout.TypeTime {
		t.Error("time column type wrong")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	b := NewBuilder(1)
	if err := b.AddRow(Row{Time: 1, Cols: map[string]Value{"i": Int64Value(1)}}); err != nil {
		t.Fatal(err)
	}
	v := b.Snapshot()
	// Rows added after the snapshot must not appear in it.
	if err := b.AddRow(Row{Time: 2, Cols: map[string]Value{"i": Int64Value(2)}}); err != nil {
		t.Fatal(err)
	}
	if v.Rows() != 1 {
		t.Errorf("snapshot grew to %d rows", v.Rows())
	}
	iCol, _ := v.DecodeColumn("i")
	if got := iCol.(*column.Int64Column).Values; len(got) != 1 || got[0] != 1 {
		t.Errorf("snapshot values = %v", got)
	}
}

func TestSnapshotMatchesSealedBlock(t *testing.T) {
	// A snapshot and the block sealed from the same builder must agree on
	// every value (the unsealed path takes no compression shortcuts).
	mk := func() *Builder {
		b := NewBuilder(7)
		for i := 0; i < 500; i++ {
			err := b.AddRow(Row{Time: int64(1000 + i), Cols: map[string]Value{
				"svc": StringValue([]string{"a", "b", "c"}[i%3]),
				"n":   Int64Value(int64(i * i)),
			}})
			if err != nil {
				t.Fatal(err)
			}
		}
		return b
	}
	v := mk().Snapshot()
	rb, err := mk().Seal()
	if err != nil {
		t.Fatal(err)
	}
	vTimes, _ := v.Times(nil)
	rbTimes, _ := rb.Times(nil)
	if !reflect.DeepEqual(vTimes, rbTimes) {
		t.Error("times differ")
	}
	vN, _ := v.DecodeColumn("n")
	rbN, _ := rb.DecodeColumn("n")
	if !reflect.DeepEqual(vN.(*column.Int64Column).Values, rbN.(*column.Int64Column).Values) {
		t.Error("int values differ")
	}
	vS, _ := v.DecodeColumn("svc")
	rbS, _ := rb.DecodeColumn("svc")
	for i := 0; i < 500; i++ {
		if vS.(*column.StringColumn).Value(i) != rbS.(*column.StringColumn).Value(i) {
			t.Fatalf("string row %d differs", i)
		}
	}
}
