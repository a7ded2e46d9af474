package rowblock

import (
	"errors"
	"fmt"
	"sort"

	"scuba/internal/column"
	"scuba/internal/layout"
)

// UnsealedView is a query's read-only view of a builder's in-progress rows,
// so queries see data the moment it is ingested, before the block seals and
// compresses. It aliases the builder's vectors instead of copying them: a
// builder only appends, so the first Rows() cells of every vector stay as
// they are under the view. A string or set column is its builder column's
// interner cut at the view's row count: AppendBatch interned every row as
// it appended it, so a read interns nothing.
type UnsealedView struct {
	created int64
	minTime int64
	maxTime int64
	sorted  bool // the builder's at Snapshot: appends never touch these rows
	schema  Schema
	vecs    []BatchColumn      // parallel to schema; vecs[0] is the time column
	dicts   []*column.Interner // parallel to schema
}

// Snapshot returns a view of the builder's current rows, nil when it has
// none. It is O(columns) — slice headers with the capacity clipped to the
// row count, so the builder's later appends and backfills, which write only
// past it, never reach what the view reads; a column the builder adds later
// is a new vector the view never saw, and a sealed builder is dropped, not
// reused.
func (b *Builder) Snapshot() *UnsealedView {
	n := len(b.times)
	if n == 0 {
		return nil
	}
	v := &UnsealedView{
		created: b.created,
		minTime: b.minTime,
		maxTime: b.maxTime,
		sorted:  b.sorted,
		schema:  make(Schema, 1, len(b.names)+1),
		vecs:    make([]BatchColumn, 1, len(b.names)+1),
		dicts:   make([]*column.Interner, 1, len(b.names)+1),
	}
	v.schema[0] = Field{Name: TimeColumn, Type: layout.TypeTime}
	v.vecs[0] = BatchColumn{Name: TimeColumn, Type: layout.TypeTime, Ints: b.times[:n:n]}
	for _, name := range b.names {
		cb := b.builders[name]
		v.schema = append(v.schema, Field{Name: name, Type: cb.sealedType()})
		vec := BatchColumn{Name: name, Type: cb.Type} // a string or set column reads its interner
		if cb.Type != layout.TypeString && cb.Type != layout.TypeStringSet {
			vec = cb.slice(0, n)
		}
		v.vecs = append(v.vecs, vec)
		v.dicts = append(v.dicts, &cb.dict)
	}
	return v
}

// Seal compresses the view's rows into an immutable block: the one encoder of
// a builder's rows, which reads only what the view aliases, so ingest goes on
// appending meanwhile. Zone maps are stamped from the raw values (strings
// from their dictionary), so the query path can disprove predicates undecoded.
func (v *UnsealedView) Seal() (*RowBlock, error) {
	if v == nil {
		return nil, errors.New("rowblock: sealing empty block")
	}
	rb := &RowBlock{hdr: Header{RowCount: v.Rows(), MinTime: v.minTime, MaxTime: v.maxTime, Created: v.created},
		schema: v.schema, cols: make([]*layout.RBC, len(v.schema)), zones: make([]ZoneMap, len(v.schema))}
	for i, c := range v.vecs {
		var blob []byte
		var dict []string
		switch c.Type {
		case layout.TypeInt64, layout.TypeTime:
			blob = column.EncodeInt64(v.schema[i].Type, c.Ints)
		case layout.TypeFloat64:
			blob = column.EncodeFloat64(c.Floats)
		case layout.TypeString:
			blob, dict = v.dicts[i].EncodeStrings(v.Rows())
		case layout.TypeStringSet:
			blob, dict = v.dicts[i].EncodeSets(v.Rows())
		}
		var err error
		if rb.cols[i], err = layout.ParseTrusted(blob); err != nil {
			return nil, fmt.Errorf("rowblock: sealing column %q: %w", c.Name, err)
		}
		rb.zones[i] = c.sealZoneMap(dict)
		rb.hdr.Size += int64(len(blob))
	}
	return rb, nil
}

// Rows returns the number of rows in the view.
func (v *UnsealedView) Rows() int { return len(v.vecs[0].Ints) }

// Times returns the view's time column (dst is a sealed block's decode
// target; the view's times are already a slice).
func (v *UnsealedView) Times(dst []int64) ([]int64, error) { return v.vecs[0].Ints, nil }

// Overlaps reports whether the view may contain rows in [from, to].
func (v *UnsealedView) Overlaps(from, to int64) bool {
	return v.minTime <= to && v.maxTime >= from
}

// Within reports whether every row's time in the view lies in [from, to].
func (v *UnsealedView) Within(from, to int64) bool {
	return v.minTime >= from && v.maxTime <= to
}

// Range returns the rows [lo, hi) whose times lie in [from, to], found by
// two binary searches, when the view's times are non-decreasing; ok is
// false when they are not, and each row's time must be compared instead.
func (v *UnsealedView) Range(from, to int64) (lo, hi int, ok bool, err error) {
	if !v.sorted {
		return 0, 0, false, nil
	}
	times := v.vecs[0].Ints
	lo = sort.Search(len(times), func(i int) bool { return times[i] >= from })
	hi = lo + sort.Search(len(times)-lo, func(i int) bool { return times[lo+i] > to })
	return lo, hi, true, nil
}

// Schema returns the view's schema, typed as the sealed block's will be.
func (v *UnsealedView) Schema() Schema { return v.schema }

// HasColumn reports whether the view has the named column.
func (v *UnsealedView) HasColumn(name string) bool { return v.schema.Index(name) >= 0 }

// DecodeColumn returns the named column, nil when the view lacks it. A
// string or set column takes its interner's mutex, never the table lock.
func (v *UnsealedView) DecodeColumn(name string) (column.Column, error) {
	i := v.schema.Index(name)
	if i < 0 {
		return nil, nil
	}
	switch c := &v.vecs[i]; c.Type {
	case layout.TypeString:
		return v.dicts[i].Strings(v.Rows()), nil
	case layout.TypeStringSet:
		return v.dicts[i].Sets(v.Rows()), nil
	case layout.TypeFloat64:
		return &column.Float64Column{Values: c.Floats}, nil
	default:
		return column.NewInt64(v.schema[i].Type, c.Ints), nil
	}
}
