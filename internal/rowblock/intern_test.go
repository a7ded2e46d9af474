package rowblock

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"scuba/internal/column"
	"scuba/internal/layout"
)

// internRows draws rows for FuzzSealMatchesValueEncoders: a string and a set
// column that some batches lack — the string column drops out for whole
// stretches of 250 rows, so batches inside one lack it after the builder has
// interned its values — a string and a set column that first appear partway
// through, empty strings, repeated and empty set members, and some 300
// distinct strings, so that a set's IDs change varint width when the seal
// sorts the dictionary.
func internRows(rng *rand.Rand, n int) []Row {
	word := func() string {
		switch rng.Intn(8) {
		case 0:
			return ""
		case 1, 2, 3:
			return fmt.Sprintf("w%d", rng.Intn(300))
		default:
			return fmt.Sprintf("c%d", rng.Intn(6))
		}
	}
	set := func() Value {
		s := make([]string, rng.Intn(4))
		for j := range s {
			s[j] = word()
		}
		if len(s) > 1 && rng.Intn(3) == 0 {
			s[1] = s[0]
		}
		return SetValue(s...)
	}
	rows := make([]Row, n)
	for i := range rows {
		cols := map[string]Value{"n": Int64Value(rng.Int63n(100))}
		if rng.Intn(4) > 0 && i/250%3 != 1 {
			cols["s"] = StringValue(word())
		}
		if rng.Intn(3) > 0 {
			cols["tags"] = set()
		}
		if i > n/3 && rng.Intn(2) == 0 {
			cols["late"] = StringValue(word())
		}
		if i > n/2 && rng.Intn(2) == 0 {
			cols["lateTags"] = set()
		}
		rows[i] = Row{Time: int64(i) + rng.Int63n(5), Cols: cols}
	}
	return rows
}

// FuzzSealMatchesValueEncoders seals random blocks through the builder, under
// a byte cap that cuts batches, while views of it are taken at random points,
// read in part at once and in full later — some before the seal, the rest
// only after it. Every block's RBC bytes and zone maps must equal what the
// values encoders and a per-cell Bloom make of the same cells, and every view
// must read the rows it was taken over. It fails on a seal that sorts the
// dictionary or remaps the IDs in place (a view read after the seal decodes
// other strings), on an absent cell that takes another ID than the interned
// "" (a column first seen partway, or one a batch lacks), and on an interner
// that skips or repeats a row.
func FuzzSealMatchesValueEncoders(f *testing.F) {
	for seed := range int64(6) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		rows := internRows(rng, 1500+rng.Intn(1500))
		byteCap := int64(4000 + rng.Intn(16000))
		type view struct {
			v    *UnsealedView
			rows []Row // the cells the builder held when the view was taken
		}
		var views []view
		var held []Row
		blocks, b := 0, NewBuilder(1)
		b.byteCap = byteCap
		seal := func() {
			rng.Shuffle(len(views), func(i, j int) { views[i], views[j] = views[j], views[i] })
			for _, v := range views[:len(views)/2] {
				checkView(t, v.v, v.rows)
			}
			rb, err := b.Seal()
			if err != nil {
				t.Fatal(err)
			}
			checkSealed(t, rb, held)
			for _, v := range views[len(views)/2:] {
				checkView(t, v.v, v.rows)
			}
			views, held, blocks = nil, nil, blocks+1
			b = NewBuilder(1)
			b.byteCap = byteCap
		}
		for off := 0; off < len(rows); {
			bt, err := FromRows(rows[off:min(off+1+rng.Intn(200), len(rows))])
			if err != nil {
				t.Fatal(err)
			}
			off += bt.Rows()
			for bt.Rows() > 0 {
				if v := b.Snapshot(); v != nil && rng.Intn(3) == 0 {
					for _, f := range v.Schema()[1:] {
						if rng.Intn(2) == 0 {
							if _, err := v.DecodeColumn(f.Name); err != nil {
								t.Fatal(err)
							}
						}
					}
					views = append(views, view{v, held[:len(held):len(held)]})
				}
				took, err := b.AppendBatch(bt)
				if err != nil {
					t.Fatal(err)
				}
				held = append(held, batchRows(bt.Slice(0, took))...)
				if bt = bt.Slice(took, bt.Rows()); b.Full() {
					seal()
				}
			}
		}
		if b.Rows() > 0 {
			seal()
		}
		if blocks < 2 {
			t.Fatalf("%d rows sealed into %d block under a %d-byte cap", len(rows), blocks, byteCap)
		}
	})
}

// checkSealed compares each column of a sealed block with the values
// encoders' blob over the cells it was built from (a cell a row lacks reads
// as its type's zero value), and each zone map with one stamped over those
// cells — for a string or set column a Bloom filter of every cell.
func checkSealed(t *testing.T, rb *RowBlock, held []Row) {
	t.Helper()
	names := map[string]bool{}
	for _, r := range held {
		for name := range r.Cols {
			names[name] = true
		}
	}
	if rb.Rows() != len(held) || len(rb.Schema()) != 1+len(names) {
		t.Fatalf("sealed %d rows and %d columns; the builder held %d and %d", rb.Rows(), len(rb.Schema())-1, len(held), len(names))
	}
	for i, f := range rb.Schema() {
		var blob []byte
		zone := ZoneMap{Kind: ZoneDict}
		switch f.Type {
		case layout.TypeTime:
			times := cells(held, func(r Row) int64 { return r.Time })
			blob, zone = column.EncodeInt64(layout.TypeTime, times), zoneOfInts(times)
		case layout.TypeInt64:
			ints := cells(held, func(r Row) int64 { return r.Cols[f.Name].Int })
			blob, zone = column.EncodeInt64(layout.TypeInt64, ints), zoneOfInts(ints)
		case layout.TypeString:
			strs := cells(held, func(r Row) string { return r.Cols[f.Name].Str })
			var in column.Interner
			in.AppendStrings(strs, 0, 0)
			blob, _ = in.EncodeStrings(len(strs))
			for _, s := range strs {
				zone.bloomAdd(s)
			}
		case layout.TypeStringSet:
			sets := cells(held, func(r Row) []string { return r.Cols[f.Name].Set })
			var in column.Interner
			in.AppendSets(sets, 0, 0)
			blob, _ = in.EncodeSets(len(sets))
			zone.Kind = ZoneSetDict
			for _, set := range sets {
				for _, s := range set {
					zone.bloomAdd(s)
				}
			}
		}
		if !bytes.Equal(rb.Column(i).Blob(), blob) {
			t.Fatalf("column %q of a %d-row block: sealed bytes differ from the values encoder's", f.Name, len(held))
		}
		if rb.zoneAt(i) != zone {
			t.Fatalf("column %q of a %d-row block: zone map %+v, want %+v", f.Name, len(held), rb.zoneAt(i), zone)
		}
	}
}

func cells[T any](rows []Row, cell func(Row) T) []T {
	out := make([]T, len(rows))
	for i, r := range rows {
		out[i] = cell(r)
	}
	return out
}

// checkView reads every column of a view and compares it with rows, the cells
// the builder held when the view was taken.
func checkView(t *testing.T, v *UnsealedView, rows []Row) {
	t.Helper()
	if v.Rows() != len(rows) {
		t.Fatalf("a view taken over %d rows holds %d", len(rows), v.Rows())
	}
	for _, f := range v.Schema()[1:] {
		col, err := v.DecodeColumn(f.Name)
		if err != nil {
			t.Fatal(err)
		}
		var sets [][]string
		if c, ok := col.(*column.StringSetColumn); ok {
			if sets, err = c.Values(); err != nil {
				t.Fatal(err)
			}
		}
		for i, r := range rows {
			want, ok := r.Cols[f.Name], false
			switch c := col.(type) {
			case *column.Int64Column:
				ok = c.Values[i] == want.Int
			case *column.StringColumn:
				ok = c.Value(i) == want.Str
			case *column.StringSetColumn:
				ok = slices.Equal(sets[i], want.Set)
			}
			if !ok {
				t.Fatalf("a view of %d rows reads row %d of column %q wrong", len(rows), i, f.Name)
			}
		}
	}
}
