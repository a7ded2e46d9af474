package shm

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"scuba/internal/rowblock"
)

// TestTableSegmentProperty round-trips randomized table contents through a
// segment: random block counts, row counts, schemas and values must come
// back exactly, in order, for both mmap and fallback modes.
func TestTableSegmentProperty(t *testing.T) {
	runBothModes(t, func(t *testing.T, noMmap bool) {
		rng := rand.New(rand.NewSource(321))
		for trial := 0; trial < 15; trial++ {
			m := newTestManager(t, trial, noMmap)
			nblocks := 1 + rng.Intn(5)
			blocks := make([]*rowblock.RowBlock, nblocks)
			for bi := range blocks {
				builder := rowblock.NewBuilder(rng.Int63n(1 << 40))
				rows := 1 + rng.Intn(400)
				for r := 0; r < rows; r++ {
					row := rowblock.Row{Time: rng.Int63n(1 << 40), Cols: map[string]rowblock.Value{}}
					if rng.Intn(2) == 0 {
						row.Cols["s"] = rowblock.StringValue(fmt.Sprintf("v%d", rng.Intn(50)))
					}
					if rng.Intn(2) == 0 {
						row.Cols["n"] = rowblock.Int64Value(rng.Int63() - rng.Int63())
					}
					if rng.Intn(4) == 0 {
						row.Cols["f"] = rowblock.Float64Value(rng.NormFloat64())
					}
					if err := builder.AddRow(row); err != nil {
						t.Fatal(err)
					}
				}
				rb, err := builder.Seal()
				if err != nil {
					t.Fatal(err)
				}
				blocks[bi] = rb
			}

			w, err := CreateTableSegment(m, "tbl-p", "p")
			if err != nil {
				t.Fatal(err)
			}
			for _, rb := range blocks {
				if err := w.WriteBlock(rb, 0, false); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Finish(); err != nil {
				t.Fatal(err)
			}

			restored, err := drainView(openView(t, m, "tbl-p", "p"))
			if err != nil {
				t.Fatal(err)
			}
			if len(restored) != nblocks {
				t.Fatalf("trial %d: %d blocks back, want %d", trial, len(restored), nblocks)
			}
			if m.SegmentExists("tbl-p") {
				t.Fatalf("trial %d: segment survived its drain", trial)
			}
			for i := range restored {
				orig := blocks[i]
				got := restored[i]
				if got.Header() != orig.Header() {
					t.Fatalf("trial %d block %d: header %+v != %+v", trial, i, got.Header(), orig.Header())
				}
				gt, _ := got.Times(nil)
				ot, _ := orig.Times(nil)
				if !reflect.DeepEqual(gt, ot) {
					t.Fatalf("trial %d block %d: times differ", trial, i)
				}
			}
		}
	})
}
