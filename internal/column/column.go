// Package column encodes and decodes typed column values to and from the RBC
// blob format defined in internal/layout. Each value type gets the pipeline
// the paper describes (§2.1) — at least two compression methods per column:
//
//	int64 / time  delta encoding -> zigzag -> bit packing, then LZ4
//	float64       raw IEEE-754 bits, then LZ4
//	string        dictionary encoding -> bit-packed indexes, then LZ4
//	string set    dictionary encoding -> varint id lists, then LZ4
//
// The LZ4 stage is kept only when it actually shrinks the data section, and
// the compression code in the RBC header records whether it was applied.
package column

import (
	"encoding/binary"
	"fmt"
	"math"

	"scuba/internal/codec"
	"scuba/internal/codec/lz4"
	"scuba/internal/layout"
)

// Column is a decoded, queryable column. Concrete types are Int64Column,
// Float64Column, StringColumn, and StringSetColumn.
type Column interface {
	// Type returns the column's value type.
	Type() layout.ValueType
	// Len returns the number of rows.
	Len() int
}

// maybeLZ4 compresses data and reports whether compression paid off.
func maybeLZ4(data []byte) (out []byte, compressed bool) {
	if len(data) < 64 {
		return data, false // too small to be worth a compressor stage
	}
	comp, err := lz4.Compress(make([]byte, 0, lz4.CompressBound(len(data))), data)
	if err != nil || len(comp) >= len(data) {
		return data, false
	}
	return comp, true
}

// undoLZ4 reverses maybeLZ4 according to the compression code.
func undoLZ4(r *layout.RBC) ([]byte, error) {
	data := r.Data()
	if r.Code().Compressor() != codec.MethodLZ4 {
		return data, nil
	}
	return lz4.Decompress(data, r.UncompressedLen())
}

// finish wraps an encoded data section into an RBC blob, applying LZ4.
func finish(vt layout.ValueType, transform codec.Method, numItems, numDictItems uint64, dict, data []byte) []byte {
	uncompressed := uint64(len(data))
	out, compressed := maybeLZ4(data)
	comp := codec.MethodRaw
	if compressed {
		comp = codec.MethodLZ4
	}
	return layout.Build(vt, codec.NewCode(transform, comp), numItems, numDictItems, dict, out, uncompressed)
}

// EncodeInt64 encodes signed integer values. vt must be TypeInt64 or
// TypeTime; the time column is an int64 column with a dedicated type code.
func EncodeInt64(vt layout.ValueType, values []int64) []byte {
	if vt != layout.TypeInt64 && vt != layout.TypeTime {
		panic(fmt.Sprintf("column: EncodeInt64 with type %v", vt))
	}
	data := codec.EncodeDeltaBPI64(nil, values)
	return finish(vt, codec.MethodDeltaBP, uint64(len(values)), 0, nil, data)
}

// EncodeFloat64 encodes float values as raw bits plus LZ4.
func EncodeFloat64(values []float64) []byte {
	data := make([]byte, 0, len(values)*8)
	for _, v := range values {
		data = binary.LittleEndian.AppendUint64(data, math.Float64bits(v))
	}
	return finish(layout.TypeFloat64, codec.MethodRaw, uint64(len(values)), 0, nil, data)
}

// EncodeString dictionary-encodes string values.
func EncodeString(values []string) []byte {
	d := codec.NewDict()
	ids := make([]uint32, len(values))
	for i, s := range values {
		ids[i] = d.ID(s)
	}
	remap := d.Canonicalize()
	packed := make([]uint64, len(ids))
	for i, id := range ids {
		packed[i] = uint64(remap[id])
	}
	dict := codec.EncodeDict(nil, d.Items())
	data := codec.EncodeBitPackU64(nil, packed)
	return finish(layout.TypeString, codec.MethodDict, uint64(len(values)), uint64(d.Len()), dict, data)
}

// EncodeStringSet encodes per-row string sets: each row's data is a varint
// count followed by varint dictionary IDs.
func EncodeStringSet(values [][]string) []byte {
	d := codec.NewDict()
	rows := make([][]uint32, len(values))
	for i, set := range values {
		ids := make([]uint32, len(set))
		for j, s := range set {
			ids[j] = d.ID(s)
		}
		rows[i] = ids
	}
	remap := d.Canonicalize()
	var data []byte
	for _, ids := range rows {
		data = binary.AppendUvarint(data, uint64(len(ids)))
		for _, id := range ids {
			data = binary.AppendUvarint(data, uint64(remap[id]))
		}
	}
	dict := codec.EncodeDict(nil, d.Items())
	return finish(layout.TypeStringSet, codec.MethodDict, uint64(len(values)), uint64(d.Len()), dict, data)
}

// Int64Column is a decoded integer (or time) column.
type Int64Column struct {
	vt     layout.ValueType
	Values []int64
}

// Type implements Column.
func (c *Int64Column) Type() layout.ValueType { return c.vt }

// Len implements Column.
func (c *Int64Column) Len() int { return len(c.Values) }

// Float64Column is a decoded float column.
type Float64Column struct {
	Values []float64
}

// Type implements Column.
func (c *Float64Column) Type() layout.ValueType { return layout.TypeFloat64 }

// Len implements Column.
func (c *Float64Column) Len() int { return len(c.Values) }

// StringColumn is a decoded dictionary string column. Values stay as
// dictionary IDs; Value materializes one string at a time, and predicates can
// be evaluated once against the dictionary instead of per row.
type StringColumn struct {
	Dict []string
	IDs  []uint32
}

// Type implements Column.
func (c *StringColumn) Type() layout.ValueType { return layout.TypeString }

// Len implements Column.
func (c *StringColumn) Len() int { return len(c.IDs) }

// Value returns the string at row i.
func (c *StringColumn) Value(i int) string { return c.Dict[c.IDs[i]] }

// StringSetColumn is a decoded string-set column.
type StringSetColumn struct {
	Dict []string
	Rows [][]uint32
}

// Type implements Column.
func (c *StringSetColumn) Type() layout.ValueType { return layout.TypeStringSet }

// Len implements Column.
func (c *StringSetColumn) Len() int { return len(c.Rows) }

// Value returns the set of strings at row i.
func (c *StringSetColumn) Value(i int) []string {
	out := make([]string, len(c.Rows[i]))
	for j, id := range c.Rows[i] {
		out[j] = c.Dict[id]
	}
	return out
}

// Contains reports whether row i's set contains s.
func (c *StringSetColumn) Contains(i int, s string) bool {
	for _, id := range c.Rows[i] {
		if c.Dict[id] == s {
			return true
		}
	}
	return false
}

// Decode parses a validated RBC into a typed Column.
func Decode(r *layout.RBC) (Column, error) {
	switch r.Type() {
	case layout.TypeInt64, layout.TypeTime:
		vals, err := DecodeInt64(r)
		if err != nil {
			return nil, err
		}
		return &Int64Column{vt: r.Type(), Values: vals}, nil
	case layout.TypeFloat64:
		vals, err := DecodeFloat64(r)
		if err != nil {
			return nil, err
		}
		return &Float64Column{Values: vals}, nil
	case layout.TypeString:
		return DecodeString(r)
	case layout.TypeStringSet:
		return DecodeStringSet(r)
	default:
		return nil, fmt.Errorf("column: unknown value type %v", r.Type())
	}
}

// DecodeInt64 decodes an int64 or time column.
func DecodeInt64(r *layout.RBC) ([]int64, error) {
	if r.Type() != layout.TypeInt64 && r.Type() != layout.TypeTime {
		return nil, fmt.Errorf("column: %v is not an integer column", r.Type())
	}
	data, err := undoLZ4(r)
	if err != nil {
		return nil, err
	}
	vals, err := codec.DecodeDeltaBPI64(data)
	if err != nil {
		return nil, err
	}
	if len(vals) != r.NumItems() {
		return nil, fmt.Errorf("column: decoded %d values, header says %d", len(vals), r.NumItems())
	}
	return vals, nil
}

// DecodeFloat64 decodes a float column.
func DecodeFloat64(r *layout.RBC) ([]float64, error) {
	if r.Type() != layout.TypeFloat64 {
		return nil, fmt.Errorf("column: %v is not a float column", r.Type())
	}
	data, err := undoLZ4(r)
	if err != nil {
		return nil, err
	}
	if len(data) != r.NumItems()*8 {
		return nil, fmt.Errorf("column: %d data bytes for %d floats", len(data), r.NumItems())
	}
	vals := make([]float64, r.NumItems())
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
	}
	return vals, nil
}

// DecodeString decodes a dictionary string column.
func DecodeString(r *layout.RBC) (*StringColumn, error) {
	if r.Type() != layout.TypeString {
		return nil, fmt.Errorf("column: %v is not a string column", r.Type())
	}
	dict, err := codec.DecodeDict(r.Dict())
	if err != nil {
		return nil, err
	}
	if len(dict) != r.NumDictItems() {
		return nil, fmt.Errorf("column: %d dict entries, header says %d", len(dict), r.NumDictItems())
	}
	data, err := undoLZ4(r)
	if err != nil {
		return nil, err
	}
	packed, err := codec.DecodeBitPackU64(data)
	if err != nil {
		return nil, err
	}
	if len(packed) != r.NumItems() {
		return nil, fmt.Errorf("column: decoded %d ids, header says %d", len(packed), r.NumItems())
	}
	ids := make([]uint32, len(packed))
	for i, v := range packed {
		if v >= uint64(len(dict)) {
			return nil, fmt.Errorf("column: id %d out of dictionary range %d", v, len(dict))
		}
		ids[i] = uint32(v)
	}
	return &StringColumn{Dict: dict, IDs: ids}, nil
}

// DecodeStringSet decodes a string-set column.
func DecodeStringSet(r *layout.RBC) (*StringSetColumn, error) {
	if r.Type() != layout.TypeStringSet {
		return nil, fmt.Errorf("column: %v is not a string-set column", r.Type())
	}
	dict, err := codec.DecodeDict(r.Dict())
	if err != nil {
		return nil, err
	}
	data, err := undoLZ4(r)
	if err != nil {
		return nil, err
	}
	// Each row costs at least one byte; a corrupt header cannot size the
	// allocation beyond the data it actually shipped.
	if r.NumItems() < 0 || r.NumItems() > len(data) {
		return nil, fmt.Errorf("column: %d set rows in %d bytes", r.NumItems(), len(data))
	}
	rows := make([][]uint32, 0, r.NumItems())
	for len(rows) < r.NumItems() {
		count, used, err := codec.Uvarint(data)
		if err != nil {
			return nil, fmt.Errorf("column: row %d count: %w", len(rows), err)
		}
		data = data[used:]
		if count > uint64(len(data)) { // each id is at least one byte
			return nil, fmt.Errorf("column: row %d claims %d ids in %d bytes", len(rows), count, len(data))
		}
		ids := make([]uint32, 0, count)
		for j := uint64(0); j < count; j++ {
			id, used, err := codec.Uvarint(data)
			if err != nil {
				return nil, fmt.Errorf("column: row %d id %d: %w", len(rows), j, err)
			}
			data = data[used:]
			if id >= uint64(len(dict)) {
				return nil, fmt.Errorf("column: id %d out of dictionary range %d", id, len(dict))
			}
			ids = append(ids, uint32(id))
		}
		rows = append(rows, ids)
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("column: %d trailing bytes after %d rows", len(data), len(rows))
	}
	return &StringSetColumn{Dict: dict, Rows: rows}, nil
}
