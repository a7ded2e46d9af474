package disk

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"scuba/internal/column"
	"scuba/internal/rowblock"
)

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

		data, err := EncodeRowFormat(orig)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeRowFormat(data)
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
