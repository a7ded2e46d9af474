package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"scuba/internal/column"
	"scuba/internal/layout"
	"scuba/internal/rowblock"
)

// TestSetMasksAgreeWithWalkAndReference checks contains three ways over
// random sealed string-set columns: the masks the decode cache keeps, the
// walk over the encoded rows, and Reference over the rows the column was
// built from. Dictionaries sit on each mask width's boundary (65 has no mask
// and stays on the walk); sets repeat members and are often empty; members
// include one the dictionary lacks; selections are random and ascending, and
// the kernels write both into a slice of their own and in place.
func TestSetMasksAgreeWithWalkAndReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, dict := range []int{1, 8, 9, 16, 17, 32, 33, 64, 65} {
		for round := 0; round < 3; round++ {
			n := dict + rng.Intn(600)
			sets, rows := make([][]string, n), make([]rowblock.Row, n)
			for i := range sets {
				set := make([]string, rng.Intn(4))
				for j := range set {
					set[j] = fmt.Sprintf("m%d", rng.Intn(dict))
				}
				if len(set) > 1 && rng.Intn(3) == 0 {
					set[1] = set[0]
				}
				if i < dict { // every member is in some row: the dictionary is dict wide
					set = append(set, fmt.Sprintf("m%d", i))
				}
				sets[i] = set
				rows[i] = rowblock.Row{Time: int64(i), Cols: map[string]rowblock.Value{
					"row": rowblock.Int64Value(int64(i)), "tags": rowblock.SetValue(set...),
				}}
			}
			var in column.Interner
			in.AppendSets(sets, 0, 0)
			blob, _ := in.EncodeSets()
			r, err := layout.Parse(blob)
			if err != nil {
				t.Fatal(err)
			}
			walk, err := column.DecodeStringSet(r)
			if err != nil {
				t.Fatal(err)
			}
			masks, err := walk.Masks()
			if err != nil {
				t.Fatalf("dict %d: %v", dict, err)
			}
			if dict > 64 {
				if masks != nil {
					t.Fatalf("dict %d: masked", dict)
				}
				continue
			}
			width := map[int]int{1: 1, 8: 1, 9: 2, 16: 2, 17: 4, 32: 4, 33: 8, 64: 8}[dict]
			if masks.MaskBytes() != n*width {
				t.Fatalf("dict %d: %d mask bytes for %d rows, want %d a row", dict, masks.MaskBytes(), n, width)
			}
			for _, member := range []string{"m0", fmt.Sprintf("m%d", dict-1), fmt.Sprintf("m%d", rng.Intn(dict)), "absent"} {
				q := &Query{Table: "t", From: 0, To: int64(n),
					Filters: []Filter{{Column: "tags", Op: OpContains, Str: member}},
					GroupBy: []string{"row"}, Aggregations: []Aggregation{{Op: AggCount}}}
				ref, err := Reference(rows, q)
				if err != nil {
					t.Fatal(err)
				}
				holds := make(map[uint32]bool)
				for _, g := range ref.Groups {
					row, _ := strconv.Atoi(g.Key[0])
					holds[uint32(row)] = true
				}
				for _, keep := range []int{1, 2, 10} {
					var sel, want []uint32
					for i := 0; i < n; i++ {
						if rng.Intn(keep) == 0 {
							sel = append(sel, uint32(i))
							if holds[uint32(i)] {
								want = append(want, uint32(i))
							}
						}
					}
					if len(sel) == 0 {
						continue
					}
					for name, kernel := range map[string]setColumn{"masked": masks, "walked": walk} {
						got, err := kernel.SelectContains(member, sel, nil)
						if err != nil || !sameSelection(got, want) {
							t.Fatalf("dict %d, %q, 1 in %d rows selected: %s found %d rows (%v), the reference %d",
								dict, member, keep, name, len(got), err, len(want))
						}
						got, err = kernel.SelectContains(member, sel, append([]uint32(nil), sel...))
						if err != nil || !sameSelection(got, want) {
							t.Fatalf("dict %d, %q, 1 in %d rows selected: %s in place found %d rows (%v), the reference %d",
								dict, member, keep, name, len(got), err, len(want))
						}
					}
				}
			}
		}
	}
}

func sameSelection(a, b []uint32) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}
