package rowblock

import (
	"math"

	"scuba/internal/column"
	"scuba/internal/layout"
)

// UnsealedView is a read-only snapshot of a builder's in-progress rows, so
// queries see data the moment it is ingested, before the block seals and
// compresses. The snapshot copies the builder's column slices; subsequent
// AddRow calls do not affect it.
type UnsealedView struct {
	rows    int
	minTime int64
	maxTime int64
	times   []int64
	schema  Schema
	cols    map[string]column.Column
}

// Snapshot captures the builder's current rows. Returns nil when empty.
func (b *Builder) Snapshot() *UnsealedView {
	if len(b.times) == 0 {
		return nil
	}
	v := &UnsealedView{
		rows:   len(b.times),
		times:  append([]int64(nil), b.times...),
		schema: Schema{{Name: TimeColumn, Type: layout.TypeTime}},
		cols:   make(map[string]column.Column, len(b.names)+1),
	}
	v.minTime, v.maxTime = math.MaxInt64, math.MinInt64
	for _, t := range v.times {
		v.minTime = min(v.minTime, t)
		v.maxTime = max(v.maxTime, t)
	}
	v.cols[TimeColumn] = column.NewInt64(layout.TypeTime, v.times)
	for _, name := range b.names {
		cb := b.builders[name]
		var col column.Column
		var vt layout.ValueType
		switch cb.Type {
		case layout.TypeInt64, layout.TypeTime:
			vt = layout.TypeInt64
			col = column.NewInt64(layout.TypeInt64, append([]int64(nil), cb.Ints...))
		case layout.TypeFloat64:
			vt = layout.TypeFloat64
			col = &column.Float64Column{Values: append([]float64(nil), cb.Floats...)}
		case layout.TypeString:
			vt = layout.TypeString
			col = column.NewStringFromValues(cb.Strs)
		case layout.TypeStringSet:
			vt = layout.TypeStringSet
			col = column.NewStringSetFromValues(cb.Sets)
		}
		v.schema = append(v.schema, Field{Name: name, Type: vt})
		v.cols[name] = col
	}
	return v
}

// Rows returns the number of snapshot rows.
func (v *UnsealedView) Rows() int { return v.rows }

// Times returns the snapshot's time column (dst is a sealed block's decode
// target; the snapshot's times are already a slice).
func (v *UnsealedView) Times(dst []int64) ([]int64, error) { return v.times, nil }

// Overlaps reports whether the snapshot may contain rows in [from, to].
func (v *UnsealedView) Overlaps(from, to int64) bool {
	return v.minTime <= to && v.maxTime >= from
}

// Within reports whether every snapshot row's time lies in [from, to].
func (v *UnsealedView) Within(from, to int64) bool {
	return v.minTime >= from && v.maxTime <= to
}

// Schema returns the snapshot schema.
func (v *UnsealedView) Schema() Schema { return v.schema }

// HasColumn reports whether the snapshot has the named column.
func (v *UnsealedView) HasColumn(name string) bool {
	_, ok := v.cols[name]
	return ok
}

// DecodeColumn returns the named column (already decoded — the snapshot is
// never compressed).
func (v *UnsealedView) DecodeColumn(name string) (column.Column, error) {
	if c, ok := v.cols[name]; ok {
		return c, nil
	}
	return nil, nil
}
