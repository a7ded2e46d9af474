package query

import (
	"reflect"
	"testing"

	"scuba/internal/rowblock"
)

// FuzzZoneMapPrune checks zone-map pruning, and the block scan under it,
// against the reference executor: for a block built from fuzz-chosen values
// and a fuzz-chosen filter, executing with zone maps live must agree exactly
// — rows, groups, error — with Reference over the rows the block was built
// from. A divergence means a prune rule claimed "no row can match" while a
// row did (or hid an error a scan would have surfaced), or the scan itself
// disagrees with the row-at-a-time answer.
func FuzzZoneMapPrune(f *testing.F) {
	f.Add(int64(0), int64(100), uint8(0), uint8(0), int64(50), 1.5, "svc-1")
	f.Add(int64(-10), int64(10), uint8(1), uint8(2), int64(-100), -0.5, "")
	f.Add(int64(5), int64(5), uint8(2), uint8(4), int64(5), 100.0, "nope")
	f.Add(int64(0), int64(3), uint8(3), uint8(6), int64(0), 0.0, "t0")
	f.Add(int64(7), int64(9), uint8(0), uint8(3), int64(9), 9.0, "svc-0")

	ops := []CompareOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpContains}
	cols := []string{"n", "fl", "s", "set", "absent"}

	f.Fuzz(func(t *testing.T, base, spread int64, colSel, opSel uint8, opInt int64, opFloat float64, opStr string) {
		if spread < 0 {
			spread = -spread
		}
		spread = spread%97 + 1
		rows := make([]rowblock.Row, 32)
		for i := range rows {
			v := base + int64(i)%spread
			rows[i] = rowblock.Row{
				Time: 1000 + int64(i),
				Cols: map[string]rowblock.Value{
					"n":   rowblock.Int64Value(v),
					"fl":  rowblock.Float64Value(float64(v) / 2),
					"s":   rowblock.StringValue("svc-" + string(rune('0'+v%7&0xf))),
					"set": rowblock.SetValue("t" + string(rune('0'+v%5&0xf))),
				},
			}
		}
		b := rowblock.NewBuilder(1)
		for _, r := range rows {
			if err := b.AddRow(r); err != nil {
				t.Skip()
			}
		}
		rb, err := b.Seal()
		if err != nil {
			t.Skip()
		}

		filter := Filter{
			Column: cols[int(colSel)%len(cols)],
			Op:     ops[int(opSel)%len(ops)],
			Int:    opInt,
			Float:  opFloat,
			Str:    opStr,
		}
		q := &Query{
			Table: "f", From: 0, To: 1 << 40,
			Filters:      []Filter{filter},
			GroupBy:      []string{"s"},
			Aggregations: []Aggregation{{Op: AggCount}, {Op: AggSum, Column: "n"}},
		}

		pruned := &Result{}
		prunedErr := scanBlock(rb, q, pruned, nil)
		want, wantErr := Reference(rows, q)

		if (prunedErr == nil) != (wantErr == nil) {
			t.Fatalf("error parity broken: pruned=%v reference=%v (filter %+v)", prunedErr, wantErr, filter)
		}
		if prunedErr != nil {
			return
		}
		if !reflect.DeepEqual(pruned.Rows(q), want.Rows(q)) {
			t.Fatalf("pruned result %+v != reference result %+v (filter %+v, zone %+v)",
				pruned.Rows(q), want.Rows(q), filter, rb.ColumnZone(filter.Column))
		}
		if pruned.BlocksPruned == 1 && len(want.Rows(q)) > 0 {
			t.Fatalf("block pruned but the reference found matching rows (filter %+v)", filter)
		}
	})
}
