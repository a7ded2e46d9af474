package column

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"sync"

	"scuba/internal/codec"
	"scuba/internal/layout"
)

// NewInt64 builds a decoded integer column directly from values (used by
// unsealed-row snapshots, which never pass through the encoded form).
func NewInt64(vt layout.ValueType, values []int64) *Int64Column {
	if vt != layout.TypeInt64 && vt != layout.TypeTime {
		panic(fmt.Sprintf("column: NewInt64 with type %v", vt))
	}
	return &Int64Column{vt: vt, Values: values}
}

// Interner dictionary-encodes a string or string-set column as its rows are
// read. Each call passes the column's values so far and interns only the rows
// no earlier call did, giving each new string the next ID, so IDs never
// change. The columns it returns alias its vectors cut to length; it only
// appends past them and encodes from a sorted copy. It is safe for concurrent use.
type Interner struct {
	mu    sync.Mutex
	index map[string]uint32
	dict  []string // by ID: first seen first
	ids   []uint32 // a string column's rows
	sets  []byte   // a set column's rows: uvarint count, then uvarint IDs
	ends  []int    // where each set row ends in sets
}

func (in *Interner) id(s string) uint32 {
	id, ok := in.index[s]
	if !ok {
		if in.index == nil {
			in.index = make(map[string]uint32)
		}
		// A clone, so one entry does not pin the text of a whole batch.
		s, id = strings.Clone(s), uint32(len(in.dict))
		in.index[s] = id
		in.dict = append(in.dict, s)
	}
	return id
}

func (in *Interner) internStrings(values []string) {
	for _, s := range values[min(len(in.ids), len(values)):] {
		in.ids = append(in.ids, in.id(s))
	}
}

func (in *Interner) internSets(values [][]string) {
	for _, set := range values[min(len(in.ends), len(values)):] {
		in.sets = binary.AppendUvarint(in.sets, uint64(len(set)))
		for _, s := range set {
			in.sets = binary.AppendUvarint(in.sets, uint64(in.id(s)))
		}
		in.ends = append(in.ends, len(in.sets))
	}
}

// Strings returns the string column of values, its dictionary first seen first.
func (in *Interner) Strings(values []string) *StringColumn {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.internStrings(values)
	n, d := len(values), len(in.dict)
	return &StringColumn{Dict: in.dict[:d:d], IDs: in.ids[:n:n]}
}

// Sets returns the string-set column of values, its rows encoded as a sealed
// block's data section encodes them and its dictionary in first-seen order.
func (in *Interner) Sets(values [][]string) *StringSetColumn {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.internSets(values)
	n, d, end := len(values), len(in.dict), 0
	if n > 0 {
		end = in.ends[n-1]
	}
	return &StringSetColumn{Dict: in.dict[:d:d], n: n, data: in.sets[:end:end], raw: end}
}

// canonical returns a sorted copy of the dictionary, as a sealed column
// stores it, and each ID's place in it.
func (in *Interner) canonical() (dict []string, remap []uint32) {
	dict = slices.Clone(in.dict)
	slices.Sort(dict)
	remap = make([]uint32, len(dict))
	for i, s := range dict {
		remap[in.index[s]] = uint32(i)
	}
	return dict, remap
}

// EncodeStrings returns the RBC blob of the string column values, which must
// hold every row interned so far, and its sorted dictionary.
func (in *Interner) EncodeStrings(values []string) ([]byte, []string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.internStrings(values)
	dict, remap := in.canonical()
	packed := make([]uint64, len(in.ids))
	for i, id := range in.ids {
		packed[i] = uint64(remap[id])
	}
	return finish(layout.TypeString, codec.MethodDict, uint64(len(packed)), uint64(len(dict)),
		codec.EncodeDict(nil, dict), codec.EncodeBitPackU64(nil, packed)), dict
}

// EncodeSets returns the RBC blob of the string-set column values, which
// must hold every row interned so far, and its sorted dictionary. Each row's
// data is a varint count followed by varint dictionary IDs.
func (in *Interner) EncodeSets(values [][]string) ([]byte, []string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.internSets(values)
	dict, remap := in.canonical()
	data := make([]byte, 0, len(in.sets))
	for rows := in.sets; len(rows) > 0; {
		count, used := binary.Uvarint(rows)
		data = binary.AppendUvarint(data, count)
		for rows = rows[used:]; count > 0; count-- {
			id, used := binary.Uvarint(rows)
			data = binary.AppendUvarint(data, uint64(remap[id]))
			rows = rows[used:]
		}
	}
	return finish(layout.TypeStringSet, codec.MethodDict, uint64(len(in.ends)), uint64(len(dict)),
		codec.EncodeDict(nil, dict), data), dict
}
