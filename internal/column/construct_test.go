package column

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"scuba/internal/codec"
	"scuba/internal/layout"
)

func TestNewInt64(t *testing.T) {
	c := NewInt64(layout.TypeTime, []int64{1, 2, 3})
	if c.Type() != layout.TypeTime || c.Len() != 3 {
		t.Errorf("type/len = %v/%d", c.Type(), c.Len())
	}
	defer func() {
		if recover() == nil {
			t.Error("NewInt64 with string type did not panic")
		}
	}()
	NewInt64(layout.TypeString, nil)
}

// stringsOf and setsOf return an interner that appended values.
func stringsOf(values []string) *Interner {
	in := new(Interner)
	in.AppendStrings(values, 0, 0)
	return in
}

func setsOf(values [][]string) *Interner {
	in := new(Interner)
	in.AppendSets(values, 0, 0)
	return in
}

// TestInternerStrings: a column holds the rows asked for, its dictionary in
// first-seen order, and stays as it was while later appends intern more rows
// and the encode sorts the dictionary. Padding interns "" only when a row
// takes it.
func TestInternerStrings(t *testing.T) {
	var in Interner
	values := []string{"b", "a", "b", "", "c"}
	in.AppendStrings(values[:3], 0, 8)
	first := in.Strings(3)
	if first.Len() != 3 || first.Type() != layout.TypeString || len(first.Dict) != 2 || in.Cap() != 8 {
		t.Fatalf("len/type/dict/cap = %d/%v/%q/%d", first.Len(), first.Type(), first.Dict, in.Cap())
	}
	if !reflect.DeepEqual(first.Dict, []string{"b", "a"}) || !reflect.DeepEqual(first.IDs, []uint32{0, 1, 0}) {
		t.Errorf("first column = %q %v", first.Dict, first.IDs)
	}
	in.AppendStrings(values[3:], 7, 0)
	all := in.Strings(7)
	if !reflect.DeepEqual(all.Dict, []string{"b", "a", "", "c"}) || !reflect.DeepEqual(all.IDs, []uint32{0, 1, 0, 2, 3, 2, 2}) {
		t.Errorf("whole column = %q %v", all.Dict, all.IDs)
	}
	if _, dict := in.EncodeStrings(); !reflect.DeepEqual(dict, []string{"", "a", "b", "c"}) {
		t.Errorf("sealed dictionary = %q", dict)
	}
	for i, want := range append(values, "", "") {
		if all.Value(i) != want {
			t.Errorf("row %d reads %q after the encode, want %q", i, all.Value(i), want)
		}
	}
	if first.Value(0) != "b" || first.Value(1) != "a" || first.Value(2) != "b" {
		t.Error("the first column changed under the encode")
	}
}

func TestInternerSets(t *testing.T) {
	var in Interner
	values := [][]string{{"x", "y"}, nil, {"y"}, {"z", "z", ""}}
	in.AppendSets(values[:3], 0, 0)
	first := in.Sets(3)
	if first.Len() != 3 || first.Type() != layout.TypeStringSet {
		t.Fatalf("len/type = %d/%v", first.Len(), first.Type())
	}
	if got, err := first.SelectContains("y", []uint32{0, 1, 2}, nil); err != nil || !reflect.DeepEqual(got, []uint32{0, 2}) {
		t.Errorf("rows containing y = %v, %v", got, err)
	}
	in.AppendSets(values[3:], 6, 0)
	values = append(values, nil, nil)
	all := in.Sets(6)
	if _, dict := in.EncodeSets(); !reflect.DeepEqual(dict, []string{"", "x", "y", "z"}) {
		t.Errorf("sealed dictionary = %q", dict)
	}
	for _, c := range []*StringSetColumn{first, all} {
		rows, err := c.Values()
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range rows {
			if len(row) != len(values[i]) || len(row) > 0 && !reflect.DeepEqual(row, values[i]) {
				t.Errorf("row %d of a %d-row column = %q after the encode, want %q", i, c.Len(), row, values[i])
			}
		}
	}
	// Len methods on the typed columns (interface completeness).
	if (&Float64Column{Values: []float64{1}}).Len() != 1 {
		t.Error("Float64Column.Len wrong")
	}
}

// refDict is the dictionary the string encoders built before the Interner:
// an ID per distinct cell in order of first sight, then the entries sorted in
// place and every ID handed out remapped.
type refDict struct {
	ids   map[string]uint32
	items []string
}

func (d *refDict) id(s string) uint32 {
	if id, ok := d.ids[s]; ok {
		return id
	}
	if d.ids == nil {
		d.ids = make(map[string]uint32)
	}
	d.ids[s] = uint32(len(d.items))
	d.items = append(d.items, s)
	return d.ids[s]
}

// canonicalize sorts the entries and returns the remap table old ID -> new ID.
func (d *refDict) canonicalize() []uint32 {
	order := make([]int, len(d.items))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return d.items[order[a]] < d.items[order[b]] })
	remap, sorted := make([]uint32, len(d.items)), make([]string, len(d.items))
	for newID, oldID := range order {
		remap[oldID], sorted[newID] = uint32(newID), d.items[oldID]
	}
	d.items = sorted
	return remap
}

// refEncodeString and refEncodeStringSet are the string encoders as they were
// before the Interner: a refDict over every cell, canonicalized in place,
// then each cell's ID remapped. Sealed columns must keep their bytes.
func refEncodeString(values []string) []byte {
	var d refDict
	ids := make([]uint32, len(values))
	for i, s := range values {
		ids[i] = d.id(s)
	}
	remap := d.canonicalize()
	packed := make([]uint64, len(ids))
	for i, id := range ids {
		packed[i] = uint64(remap[id])
	}
	return finish(layout.TypeString, codec.MethodDict, uint64(len(values)), uint64(len(d.items)),
		codec.EncodeDict(nil, d.items), codec.EncodeBitPackU64(nil, packed))
}

func refEncodeStringSet(values [][]string) []byte {
	var d refDict
	rows := make([][]uint32, len(values))
	for i, set := range values {
		for _, s := range set {
			rows[i] = append(rows[i], d.id(s))
		}
	}
	remap := d.canonicalize()
	var data []byte
	for _, ids := range rows {
		data = binary.AppendUvarint(data, uint64(len(ids)))
		for _, id := range ids {
			data = binary.AppendUvarint(data, uint64(remap[id]))
		}
	}
	return finish(layout.TypeStringSet, codec.MethodDict, uint64(len(values)), uint64(len(d.items)),
		codec.EncodeDict(nil, d.items), data)
}

// TestInternerEncodesAsTheDictEncoders interns random columns a piece at a
// time, as batches append them, reading a column between pieces as views
// do, and checks the encoders against the reference byte for byte: empty
// strings, repeated and empty set members, and a few hundred distinct
// values, so a set's IDs change varint width when the dictionary is sorted.
func TestInternerEncodesAsTheDictEncoders(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	word := func() string {
		if rng.Intn(6) == 0 {
			return ""
		}
		return fmt.Sprintf("v%d", rng.Intn(400))
	}
	for round := range 30 {
		strs, sets := make([]string, rng.Intn(600)), [][]string(nil)
		for i := range strs {
			strs[i] = word()
			set := make([]string, rng.Intn(4))
			for j := range set {
				set[j] = word()
			}
			if len(set) > 1 && rng.Intn(3) == 0 {
				set[1] = set[0]
			}
			sets = append(sets, set)
		}
		var si, ti Interner
		for k, next := 0, 0; k < len(strs); k = next {
			next = min(k+1+rng.Intn(100), len(strs))
			si.AppendStrings(strs[k:next], 0, 0)
			ti.AppendSets(sets[k:next], 0, rng.Intn(2*next))
			si.Strings(next)
			ti.Sets(next)
		}
		sblob, _ := si.EncodeStrings()
		tblob, _ := ti.EncodeSets()
		if !bytes.Equal(sblob, refEncodeString(strs)) {
			t.Fatalf("round %d: %d strings encode differently from the reference", round, len(strs))
		}
		if !bytes.Equal(tblob, refEncodeStringSet(sets)) {
			t.Fatalf("round %d: %d sets encode differently from the reference", round, len(sets))
		}
	}
}
