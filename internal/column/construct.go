package column

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
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
// appended: each new string gets the next ID, so IDs never change. The
// columns it returns alias its vectors cut to length; it only appends past
// them and encodes from a sorted copy. It is safe for concurrent use: a
// writer appends while readers take columns.
type Interner struct {
	mu    sync.Mutex
	index map[string]uint32
	dict  []string // by ID: first seen first
	seen  []int    // by ID: the row that first took it
	ids   []uint32 // a string column's rows
	sets  []byte   // a set column's rows: uvarint count, then uvarint IDs
	ends  []int    // where each set row ends in sets
	batch []byte   // AppendSets' scratch: one call's rows, encoded
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
		in.seen = append(in.seen, len(in.ids)+len(in.ends)) // the row being appended

	}
	return id
}

// Cap returns how many rows the column holds before its row vector moves.
// Only appends change it, so the writer reads it without the mutex.
func (in *Interner) Cap() int { return max(cap(in.ids), cap(in.ends)) }

// reserve returns s, moved to an array of exactly n cells when it has less.
func reserve[T any](s []T, n int) []T {
	if n > cap(s) {
		s = append(make([]T, 0, n), s...)
	}
	return s
}

// AppendStrings interns values as the string column's next rows, then pads
// it with "" to rows rows, in a row vector with room for at least room rows.
// "" enters the dictionary only when a row takes it.
func (in *Interner) AppendStrings(values []string, rows, room int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.ids = reserve(in.ids, max(room, rows, len(in.ids)+len(values)))
	for _, s := range values {
		in.ids = append(in.ids, in.id(s))
	}
	for len(in.ids) < rows {
		in.ids = append(in.ids, in.id(""))
	}
}

// AppendSets is AppendStrings for a set column. A varint buffer that must
// move gets room for as many rows, at its bytes per row once these are in.
func (in *Interner) AppendSets(values [][]string, rows, room int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.ends = reserve(in.ends, max(room, rows, len(in.ends)+len(values)))
	buf, base := in.batch[:0], len(in.sets)
	for _, set := range values {
		buf = binary.AppendUvarint(buf, uint64(len(set)))
		for _, s := range set {
			buf = binary.AppendUvarint(buf, uint64(in.id(s)))
		}
		in.ends = append(in.ends, base+len(buf))
	}
	for len(in.ends) < rows {
		buf = append(buf, 0) // an empty set is a zero count
		in.ends = append(in.ends, base+len(buf))
	}
	if need := base + len(buf); need > cap(in.sets) {
		in.sets = reserve(in.sets, max(need, cap(in.ends)*need/len(in.ends)))
	}
	in.sets, in.batch = append(in.sets, buf...), buf
}

// Strings returns the string column's first n rows, its dictionary first
// seen first.
func (in *Interner) Strings(n int) *StringColumn {
	in.mu.Lock()
	defer in.mu.Unlock()
	d := len(in.dict)
	return &StringColumn{Dict: in.dict[:d:d], IDs: in.ids[:n:n]}
}

// Sets returns the set column's first n rows, encoded as a sealed block's
// data section encodes them, its dictionary first seen first.
func (in *Interner) Sets(n int) *StringSetColumn {
	in.mu.Lock()
	defer in.mu.Unlock()
	d, end := len(in.dict), 0
	if n > 0 {
		end = in.ends[n-1]
	}
	return &StringSetColumn{Dict: in.dict[:d:d], n: n, data: in.sets[:end:end], raw: end}
}

// canonical returns a sorted copy of the dictionary the first n rows use, as
// a sealed column stores it, and each ID's place in it. IDs go first seen
// first, so those rows use a prefix of the dictionary.
func (in *Interner) canonical(n int) (dict []string, remap []uint32) {
	dict = slices.Clone(in.dict[:sort.SearchInts(in.seen, n)])
	slices.Sort(dict)
	remap = make([]uint32, len(dict))
	for i, s := range dict {
		remap[in.index[s]] = uint32(i)
	}
	return dict, remap
}

// EncodeStrings returns the RBC blob of the string column's first n rows and
// their sorted dictionary: rows appended since do not reach it.
func (in *Interner) EncodeStrings(n int) ([]byte, []string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	dict, remap := in.canonical(n)
	packed := make([]uint64, n)
	for i, id := range in.ids[:n] {
		packed[i] = uint64(remap[id])
	}
	return finish(layout.TypeString, codec.MethodDict, uint64(len(packed)), uint64(len(dict)),
		codec.EncodeDict(nil, dict), codec.EncodeBitPackU64(nil, packed)), dict
}

// EncodeSets is EncodeStrings for the string-set column. Each row's data is
// a varint count followed by varint dictionary IDs.
func (in *Interner) EncodeSets(n int) ([]byte, []string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	dict, remap := in.canonical(n)
	data := make([]byte, 0, len(in.sets))
	for rows, row := in.sets, 0; row < n; row++ {
		count, used := binary.Uvarint(rows)
		data = binary.AppendUvarint(data, count)
		for rows = rows[used:]; count > 0; count-- {
			id, used := binary.Uvarint(rows)
			data = binary.AppendUvarint(data, uint64(remap[id]))
			rows = rows[used:]
		}
	}
	return finish(layout.TypeStringSet, codec.MethodDict, uint64(n), uint64(len(dict)),
		codec.EncodeDict(nil, dict), data), dict
}
