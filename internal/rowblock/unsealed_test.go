package rowblock

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
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
	// Rows added after the snapshot must not appear in it, nor a column
	// that arrived with them (backfilled under the rows the view holds).
	if err := b.AddRow(Row{Time: 2, Cols: map[string]Value{"i": Int64Value(2), "j": Int64Value(3)}}); err != nil {
		t.Fatal(err)
	}
	if v.Rows() != 1 || v.HasColumn("j") {
		t.Errorf("snapshot grew to %d rows, column j %v", v.Rows(), v.HasColumn("j"))
	}
	iCol, _ := v.DecodeColumn("i")
	if got := iCol.(*column.Int64Column).Values; len(got) != 1 || got[0] != 1 {
		t.Errorf("snapshot values = %v", got)
	}
}

func TestSnapshotMatchesSealedBlock(t *testing.T) {
	// A snapshot and the block sealed from the same builder must agree on
	// every value (the unsealed path takes no compression shortcuts) and on
	// the time range, which the builder tracks as it appends: the times
	// arrive out of order, the smallest and largest mid-block.
	mk := func() *Builder {
		b := NewBuilder(7)
		for i := 0; i < 500; i++ {
			err := b.AddRow(Row{Time: int64(1000 + (i*211+137)%500), Cols: map[string]Value{
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
	h := rb.Header()
	if h.MinTime != 1000 || h.MaxTime != 1499 || vTimes[0] == h.MinTime || vTimes[len(vTimes)-1] == h.MaxTime {
		t.Fatalf("header time range [%d, %d] over times %v…", h.MinTime, h.MaxTime, vTimes[:4])
	}
	if z := zoneOfInts(rbTimes); rb.zoneAt(0) != z {
		t.Errorf("time zone map %+v, want %+v", rb.zoneAt(0), z)
	}
	for _, r := range [][2]int64{
		{h.MinTime, h.MaxTime}, {h.MinTime + 1, h.MaxTime}, {h.MinTime, h.MaxTime - 1},
		{h.MinTime - 10, h.MinTime}, {h.MinTime - 10, h.MinTime - 1},
		{h.MaxTime, h.MaxTime + 10}, {h.MaxTime + 1, h.MaxTime + 10},
	} {
		if v.Overlaps(r[0], r[1]) != rb.Overlaps(r[0], r[1]) || v.Within(r[0], r[1]) != rb.Within(r[0], r[1]) {
			t.Errorf("[%d, %d]: view overlaps %v within %v, sealed overlaps %v within %v", r[0], r[1],
				v.Overlaps(r[0], r[1]), v.Within(r[0], r[1]), rb.Overlaps(r[0], r[1]), rb.Within(r[0], r[1]))
		}
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

// wideBuilder holds n rows with one column of every type.
func wideBuilder(t *testing.T, n int) *Builder {
	t.Helper()
	bt := &Batch{Times: make([]int64, n), Cols: []BatchColumn{
		{Name: "f", Type: layout.TypeFloat64, Floats: make([]float64, n)},
		{Name: "i", Type: layout.TypeInt64, Ints: make([]int64, n)},
		{Name: "s", Type: layout.TypeString, Strs: make([]string, n)},
		{Name: "set", Type: layout.TypeStringSet, Sets: make([][]string, n)},
	}}
	for r := range n {
		bt.Times[r] = int64(r)
		bt.Cols[0].Floats[r] = float64(r) / 4
		bt.Cols[1].Ints[r] = int64(r)
		bt.Cols[2].Strs[r] = fmt.Sprint("s", r%7)
		bt.Cols[3].Sets[r] = []string{"x", fmt.Sprint("y", r%3)}
	}
	b := NewBuilder(1)
	if k, err := b.AppendBatch(bt); err != nil || k != n {
		t.Fatalf("appended %d of %d rows: %v", k, n, err)
	}
	return b
}

// TestSnapshotAllocsDoNotGrowWithRows pins what a query does under the table
// lock: taking a view of 65,536 rows allocates exactly what taking one of 1k
// does — no per-row copy, no dictionary. Outside the lock, reading a string
// or set column of the 65,536-row view allocates what reading one of the 1k
// view does and adds no dictionary entry: AppendBatch interned every row.
func TestSnapshotAllocsDoNotGrowWithRows(t *testing.T) {
	small, large := wideBuilder(t, 1000), wideBuilder(t, MaxRows)
	a := testing.AllocsPerRun(50, func() { small.Snapshot() })
	b := testing.AllocsPerRun(50, func() { large.Snapshot() })
	if a != b {
		t.Errorf("Snapshot allocates %v times at 1k rows, %v at 65,536", a, b)
	}
	// No copy at all: every vector of the view is the builder's own, and a
	// string or set column is its interner's.
	v := large.Snapshot()
	if &v.vecs[0].Ints[0] != &large.times[0] {
		t.Error("the view's times are a copy")
	}
	for _, c := range v.vecs[1:] {
		cb, shared := large.builders[c.Name], false
		switch c.Type {
		case layout.TypeInt64:
			shared = &c.Ints[0] == &cb.Ints[0]
		case layout.TypeFloat64:
			shared = &c.Floats[0] == &cb.Floats[0]
		case layout.TypeString, layout.TypeStringSet:
			shared = c.Strs == nil && c.Sets == nil
		}
		if !shared {
			t.Errorf("the view's column %q is a copy", c.Name)
		}
	}
	for _, name := range []string{"s", "set"} {
		dict := func() int { return len(large.builders[name].dict.Strings(0).Dict) }
		entries := dict()
		read := func(v *UnsealedView) func() {
			return func() {
				if col, err := v.DecodeColumn(name); err != nil || col.Len() != v.Rows() {
					t.Fatalf("column %q of a %d-row view: %v", name, v.Rows(), err)
				}
			}
		}
		if a, b := testing.AllocsPerRun(50, read(small.Snapshot())), testing.AllocsPerRun(50, read(v)); a != b {
			t.Errorf("reading column %q allocates %v times at 1k rows, %v at 65,536", name, a, b)
		}
		if dict() != entries {
			t.Errorf("reading column %q of a view added %d dictionary entries", name, dict()-entries)
		}
	}
}

// timesBatch is a batch of the given times, each row with one int column
// (and, when pad > 0, a string of that many bytes, to reach a byte cap).
func timesBatch(pad int, times ...int64) *Batch {
	bt := &Batch{Times: times, Cols: []BatchColumn{{Name: "i", Type: layout.TypeInt64, Ints: make([]int64, len(times))}}}
	if pad > 0 {
		bt.Cols = append(bt.Cols, BatchColumn{Name: "pad", Type: layout.TypeString, Strs: make([]string, len(times))})
		for r := range times {
			bt.Cols[1].Strs[r] = strings.Repeat("x", pad)
		}
	}
	return bt
}

// appendAll appends bt whole to b.
func appendAll(t *testing.T, b *Builder, bt *Batch) {
	t.Helper()
	if n, err := b.AppendBatch(bt); err != nil || n != bt.Rows() {
		t.Fatalf("appended %d of %d rows: %v", n, bt.Rows(), err)
	}
}

// TestRangeOverAscendingTimes: a view whose times never fall answers a time
// range as the run of rows [lo, hi) — ties at either end included — and one
// row below an earlier time turns that off for the rest of the builder.
func TestRangeOverAscendingTimes(t *testing.T) {
	b := NewBuilder(1)
	appendAll(t, b, timesBatch(0, 5, 5, 5, 6, 6))
	appendAll(t, b, timesBatch(0, 6, 9, 9)) // ties across a batch boundary
	v := b.Snapshot()
	for _, c := range []struct{ from, to int64 }{
		{5, 5}, {6, 6}, {9, 9}, {5, 9}, {6, 9}, {5, 6}, {7, 8}, {0, 4}, {10, 20},
		{math.MinInt64, math.MaxInt64}, {0, 5}, {9, math.MaxInt64}, {9, 5}, {7, 6},
	} {
		lo, hi, ok, _ := v.Range(c.from, c.to)
		times, _ := v.Times(nil)
		var want []int64
		for _, tm := range times {
			if tm >= c.from && tm <= c.to {
				want = append(want, tm)
			}
		}
		if !ok || lo > hi || !slices.Equal(times[lo:hi], want) {
			t.Errorf("[%d, %d]: rows [%d, %d) ok %v, want the rows of %v", c.from, c.to, lo, hi, ok, want)
		}
	}

	appendAll(t, b, timesBatch(0, 10, 8)) // a straggler in a later batch
	if _, _, ok, _ := b.Snapshot().Range(0, 9); ok {
		t.Error("a view past a straggler answers a range")
	}
	appendAll(t, b, timesBatch(0, 20, 21))
	if _, _, ok, _ := b.Snapshot().Range(0, 9); ok {
		t.Error("ascending rows after a straggler turned the range back on")
	}
	if lo, hi, ok, _ := v.Range(6, 6); !ok || lo != 3 || hi != 6 {
		t.Errorf("the view taken before the straggler: rows [%d, %d) ok %v, want [3, 6) true", lo, hi, ok)
	}
}

// TestRangeJudgesOnlyTheRowsTaken: a batch cut short by the byte cap or the
// row cap is judged on the rows the builder took; a straggler past the cut
// goes to the next builder and leaves this one sorted.
func TestRangeJudgesOnlyTheRowsTaken(t *testing.T) {
	b := NewBuilder(1)
	b.byteCap = 1500 // three rows of ~521 bytes
	bt := timesBatch(512, 1, 2, 3, 0)
	if n, err := b.AppendBatch(bt); err != nil || n != 3 || !b.Full() {
		t.Fatalf("took %d rows (full %v): %v", n, b.Full(), err)
	}
	if lo, hi, ok, _ := b.Snapshot().Range(2, 3); !ok || lo != 1 || hi != 3 {
		t.Errorf("byte cap: rows [%d, %d) ok %v, want [1, 3) true", lo, hi, ok)
	}

	b = NewBuilder(1)
	times := make([]int64, MaxRows-1)
	for i := range times {
		times[i] = int64(i / 3)
	}
	appendAll(t, b, timesBatch(0, times...))
	last := times[len(times)-1]
	if n, err := b.AppendBatch(timesBatch(0, last, 0)); err != nil || n != 1 || !b.Full() {
		t.Fatalf("took %d rows (full %v): %v", n, b.Full(), err)
	}
	if lo, hi, ok, _ := b.Snapshot().Range(last, last); !ok || hi != MaxRows || lo != MaxRows-4 {
		t.Errorf("row cap: rows [%d, %d) ok %v, want [%d, %d) true", lo, hi, ok, MaxRows-4, MaxRows)
	}
}

// TestRangeOfAnEarlierViewBesideAWriter: a view taken before a straggler
// keeps answering its own rows' range while a writer appends stragglers and
// grows the builder's vectors behind it (run under -race: the writer must
// never write a cell the view reads).
func TestRangeOfAnEarlierViewBesideAWriter(t *testing.T) {
	b := NewBuilder(1)
	times := make([]int64, 1000)
	for i := range times {
		times[i] = int64(i / 4)
	}
	appendAll(t, b, timesBatch(0, times...))
	v := b.Snapshot()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range 2000 {
			if _, err := b.AppendBatch(timesBatch(0, int64(300+i), int64(i%250), int64(i%250))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; ; i++ {
		from := int64(i % 260)
		lo, hi, ok, _ := v.Range(from, from+5)
		want := min(4*(from+6), 1000) - min(4*from, 1000)
		if !ok || lo != int(min(4*from, 1000)) || int64(hi-lo) != want {
			t.Fatalf("[%d, %d]: rows [%d, %d) ok %v, want %d rows from %d", from, from+5, lo, hi, ok, want, min(4*from, 1000))
		}
		select {
		case <-done:
			if _, _, ok, _ := b.Snapshot().Range(0, 1); ok {
				t.Error("the writer's stragglers left the builder ascending")
			}
			return
		default:
		}
	}
}
