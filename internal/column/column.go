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
	"slices"
	"sync"

	"scuba/internal/codec"
	"scuba/internal/codec/lz4"
	"scuba/internal/layout"
)

// Column is a decoded, queryable column. Concrete types are Int64Column,
// Float64Column, StringColumn, StringSetColumn and SetMasks.
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

// lz4Bufs holds LZ4 output buffers between decodes. A data section is
// un-LZ4'd into one, unpacked from there into the column's own typed slice,
// and the buffer goes back: decoding a block costs its columns' slices, not
// a second copy of every data section.
var lz4Bufs = sync.Pool{New: func() any { return new([]byte) }}

// undoLZ4 reverses maybeLZ4 according to the compression code. The bytes it
// returns are the RBC's own when no LZ4 stage was applied (buf is nil) and a
// pooled buffer's otherwise; either way they are only good until release(buf).
func undoLZ4(r *layout.RBC) (data []byte, buf *[]byte, err error) {
	if r.Code().Compressor() != codec.MethodLZ4 {
		return r.Data(), nil, nil
	}
	return pooledLZ4(r.Data(), r.UncompressedLen())
}

// pooledLZ4 decodes an LZ4 block of size bytes into a pooled buffer.
func pooledLZ4(block []byte, size int) (data []byte, buf *[]byte, err error) {
	buf = lz4Bufs.Get().(*[]byte)
	data, err = lz4.Decompress(*buf, block, size)
	if err != nil {
		lz4Bufs.Put(buf)
		return nil, nil, err
	}
	*buf = data
	return data, buf, nil
}

func release(buf *[]byte) {
	if buf != nil {
		lz4Bufs.Put(buf)
	}
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

// EncodeString dictionary-encodes string values (Interner.EncodeStrings).
func EncodeString(values []string) []byte {
	blob, _ := new(Interner).EncodeStrings(values)
	return blob
}

// EncodeStringSet encodes per-row string sets: each row's data is a varint
// count followed by varint dictionary IDs (Interner.EncodeSets).
func EncodeStringSet(values [][]string) []byte {
	blob, _ := new(Interner).EncodeSets(values)
	return blob
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

// StringSetColumn is a string-set column: a decoded dictionary over rows
// that stay in the data section's own encoding — back to back, each a uvarint
// count followed by that many uvarint dictionary IDs. It is the one form a
// sealed block and an unsealed snapshot both hand a reader, and no row is ever
// materialised as a slice of its own. A sealed block's column aliases the
// block's data section, LZ4 stage included, and undoes that stage only when a
// walk needs the rows; a malformed row is reported by the walk that reaches
// it. It is not kept beyond the block's reader: the decode cache holds a
// sealed set as its Masks, which own their memory.
type StringSetColumn struct {
	Dict   []string
	n      int
	data   []byte // the encoded rows, or the LZ4 block of them
	packed bool   // data is an LZ4 block
	raw    int    // length of the rows with no LZ4 stage over them
}

// Type implements Column.
func (c *StringSetColumn) Type() layout.ValueType { return layout.TypeStringSet }

// Len implements Column.
func (c *StringSetColumn) Len() int { return c.n }

// rows returns the encoded rows, through a pooled buffer when they are still
// under LZ4; they are good until release(buf).
func (c *StringSetColumn) rows() (rows []byte, buf *[]byte, err error) {
	if !c.packed {
		return c.data, nil, nil
	}
	return pooledLZ4(c.data, c.raw)
}

// Each calls fn with every row's dictionary IDs, in row order; the slice is
// reused from call to call. It stops at fn's first error, and reports a row
// the data cannot back: a truncated varint, an ID outside the dictionary,
// fewer or more bytes than the rows need.
func (c *StringSetColumn) Each(fn func(row int, ids []uint32) error) error {
	data, buf, err := c.rows()
	if err != nil {
		return err
	}
	defer release(buf)
	var ids []uint32
	for row := 0; row < c.n; row++ {
		count, used, err := codec.Uvarint(data)
		if err != nil {
			return fmt.Errorf("column: row %d count: %w", row, err)
		}
		data = data[used:]
		if count > uint64(len(data)) { // each id is at least one byte
			return fmt.Errorf("column: row %d claims %d ids in %d bytes", row, count, len(data))
		}
		ids = ids[:0]
		for j := uint64(0); j < count; j++ {
			id, used, err := codec.Uvarint(data)
			if err != nil {
				return fmt.Errorf("column: row %d id %d: %w", row, j, err)
			}
			data = data[used:]
			if id >= uint64(len(c.Dict)) {
				return fmt.Errorf("column: id %d out of dictionary range %d", id, len(c.Dict))
			}
			ids = append(ids, uint32(id))
		}
		if err := fn(row, ids); err != nil {
			return err
		}
	}
	if len(data) != 0 {
		return fmt.Errorf("column: %d trailing bytes after %d rows", len(data), c.n)
	}
	return nil
}

// Values materialises every row's set, for the callers that re-encode a
// column (the row-format translator) rather than query it.
func (c *StringSetColumn) Values() ([][]string, error) {
	var out [][]string // grown as rows are met, not sized by the header's count
	err := c.Each(func(_ int, ids []uint32) error {
		set := make([]string, len(ids))
		for j, id := range ids {
			set[j] = c.Dict[id]
		}
		out = append(out, set)
		return nil
	})
	return out, err
}

// SelectContains narrows a selection to the rows whose set holds member:
// sel lists row numbers in ascending order, and the survivors are written to
// out (which may be sel itself) and returned. The dictionary is probed
// first — a member the block never saw leaves no row and the rows untouched —
// and then the encoded rows are walked once comparing IDs; no string is
// compared per row.
func (c *StringSetColumn) SelectContains(member string, sel, out []uint32) ([]uint32, error) {
	id := slices.Index(c.Dict, member)
	if id < 0 || len(sel) == 0 {
		return out[:0], nil
	}
	data, buf, err := c.rows()
	if err != nil {
		return nil, err
	}
	defer release(buf)
	if out, err = selection(c.n, sel, out); err != nil {
		return nil, err
	}
	want := uint64(id)
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	pos, k, n := 0, 0, 0
	for row := uint32(0); k < len(sel); {
		// A row is almost always a one-byte count and a few one-byte IDs (a
		// set holds a few tags, a block's dictionary a few dozen). Eight
		// bytes in hand then hold a row or several, and whether any ID byte
		// of a row equals the wanted one is a handful of word operations.
		if pos+8 <= len(data) && want < 0x80 {
			word, left := binary.LittleEndian.Uint64(data[pos:]), uint64(8)
			for k < len(sel) {
				size := word&0xff + 1 // the row's bytes, if they are one each
				if size > left {
					break
				}
				rowBits := lowBytes[size&15]
				if word&highs&rowBits != 0 {
					break
				}
				if row == sel[k] {
					out[n] = row
					k++
					x := word ^ want*ones<<8 // a zero byte where an ID matches
					if (x-ones)&^x&highs&rowBits&^0xff != 0 {
						n++
					}
				}
				row++
				word, left = word>>(8*size&63), left-size
			}
			if left < 8 {
				pos += int(8 - left)
				continue
			}
		}
		count, used := binary.Uvarint(data[pos:])
		if used <= 0 || count > uint64(len(data)-pos-used) { // each id is at least one byte
			return nil, fmt.Errorf("column: set row %d: %w", row, codec.ErrCorrupt)
		}
		found := false
		for pos += used; count > 0; count-- {
			v, used := binary.Uvarint(data[pos:])
			if used <= 0 {
				return nil, fmt.Errorf("column: set row %d: %w", row, codec.ErrCorrupt)
			}
			pos += used
			found = found || v == want
		}
		if row == sel[k] {
			k++
			if found {
				out[n] = row
				n++
			}
		}
		row++
	}
	return out[:n], nil
}

// lowBytes[n] has the low n bytes set, for n up to 8.
var lowBytes = [16]uint64{0, 0xff, 0xffff, 0xffffff, 0xffffffff, 0xffffffffff, 0xffffffffffff, 0xffffffffffffff, ^uint64(0)}

// selection checks that sel, non-empty and ascending, fits an n-row column and
// returns out with room for it; out may be sel, as no survivor moves later.
func selection(n int, sel, out []uint32) ([]uint32, error) {
	if int(sel[len(sel)-1]) >= n {
		return nil, fmt.Errorf("column: row %d selected of %d", sel[len(sel)-1], n)
	}
	if cap(out) < len(sel) {
		return make([]uint32, len(sel)), nil
	}
	return out[:len(sel)], nil
}

// SetMasks is a sealed string-set column as the decode cache keeps it: the
// dictionary and a bitmask a row, bit i set when the row holds Dict[i], in the
// narrowest of 8, 16, 32 or 64 bits that holds the dictionary. It owns its
// memory and answers contains only; other readers read a StringSetColumn.
type SetMasks struct {
	Dict  []string
	n     int
	width int // bytes a mask
	masks interface {
		selectBit(bit int, sel, out []uint32) []uint32
	}
}

// Type implements Column.
func (c *SetMasks) Type() layout.ValueType { return layout.TypeStringSet }

// Len implements Column.
func (c *SetMasks) Len() int { return c.n }

// MaskBytes is the size of the masks, one a row.
func (c *SetMasks) MaskBytes() int { return c.n * c.width }

// Masks builds the column's masked form, validating the rows as Each does; it
// is nil for a dictionary of more than 64 entries, which stays on the walk.
func (c *StringSetColumn) Masks() (*SetMasks, error) {
	switch d := len(c.Dict); {
	case d <= 8:
		return buildMasks[uint8](c, 1)
	case d <= 16:
		return buildMasks[uint16](c, 2)
	case d <= 32:
		return buildMasks[uint32](c, 4)
	case d <= 64:
		return buildMasks[uint64](c, 8)
	}
	return nil, nil
}

type masks[M uint8 | uint16 | uint32 | uint64] []M

// buildMasks reads the rows once, a byte at a time: almost every row is a
// one-byte count and one-byte IDs below the dictionary's size (at most 64, so
// no byte of a longer varint passes). From the first row that is not, or with
// bytes left over, Each reads the rows again and reports what is wrong.
func buildMasks[M uint8 | uint16 | uint32 | uint64](c *StringSetColumn, width int) (*SetMasks, error) {
	data, buf, err := c.rows()
	if err != nil {
		return nil, err
	}
	defer release(buf)
	ms, dict, pos, row := make(masks[M], c.n), uint64(len(c.Dict)), 0, 0
	for ; row < len(ms) && pos < len(data) && data[pos] < 0x80 && int(data[pos]) < len(data)-pos; row++ {
		ids := data[pos+1 : pos+1+int(data[pos])]
		var m, or uint64
		for _, id := range ids {
			m |= 1 << (id & 63)
			or |= uint64(id)
		}
		if or >= 64 || m>>dict != 0 {
			break
		}
		ms[row], pos = M(m), pos+1+len(ids)
	}
	if row < len(ms) || pos < len(data) {
		err = c.Each(func(row int, ids []uint32) error {
			ms[row] = 0
			for _, id := range ids {
				ms[row] |= 1 << id
			}
			return nil
		})
	}
	if err != nil {
		return nil, err
	}
	return &SetMasks{Dict: c.Dict, n: c.n, width: width, masks: ms}, nil
}

// SelectContains is StringSetColumn.SelectContains, a row surviving when its
// mask has the member's bit.
func (c *SetMasks) SelectContains(member string, sel, out []uint32) ([]uint32, error) {
	bit := slices.Index(c.Dict, member)
	if bit < 0 || len(sel) == 0 {
		return out[:0], nil
	}
	out, err := selection(c.n, sel, out)
	if err != nil {
		return nil, err
	}
	return c.masks.selectBit(bit, sel, out), nil
}

func (ms masks[M]) selectBit(bit int, sel, out []uint32) []uint32 {
	k := 0
	for _, i := range sel {
		out[k] = i
		k += int(ms[i] >> bit & 1)
	}
	return out[:k]
}

// Decode parses a validated RBC into a typed Column.
func Decode(r *layout.RBC) (Column, error) {
	switch r.Type() {
	case layout.TypeInt64, layout.TypeTime:
		vals, err := DecodeInt64(nil, r)
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

// DecodeInt64 decodes an int64 or time column into dst, which is reused when
// it is large enough and may be nil.
func DecodeInt64(dst []int64, r *layout.RBC) ([]int64, error) {
	data, buf, err := intData(r)
	if err != nil {
		return nil, err
	}
	defer release(buf)
	vals, err := codec.DecodeDeltaBPI64(dst, data)
	if err != nil {
		return nil, err
	}
	if len(vals) != r.NumItems() {
		return nil, fmt.Errorf("column: decoded %d values, header says %d", len(vals), r.NumItems())
	}
	return vals, nil
}

// SearchInt64 returns, when an int64 or time column's values ascend, the
// rows [lo, hi) whose values lie in [from, to], found as the column decodes
// and without keeping it (codec.SearchDeltaBPI64); ascending is false when a
// value is below one before it.
func SearchInt64(r *layout.RBC, from, to int64) (lo, hi int, ascending bool, err error) {
	data, buf, err := intData(r)
	if err != nil {
		return 0, 0, false, err
	}
	defer release(buf)
	n, lo, hi, ascending, err := codec.SearchDeltaBPI64(data, from, to)
	if err != nil {
		return 0, 0, false, err
	}
	if n != r.NumItems() {
		return 0, 0, false, fmt.Errorf("column: searched %d values, header says %d", n, r.NumItems())
	}
	return lo, hi, ascending, nil
}

// intData is an int64 or time column's data section, un-LZ4'd into buf
// (undoLZ4).
func intData(r *layout.RBC) (data []byte, buf *[]byte, err error) {
	if r.Type() != layout.TypeInt64 && r.Type() != layout.TypeTime {
		return nil, nil, fmt.Errorf("column: %v is not an integer column", r.Type())
	}
	return undoLZ4(r)
}

// DecodeFloat64 decodes a float column.
func DecodeFloat64(r *layout.RBC) ([]float64, error) {
	if r.Type() != layout.TypeFloat64 {
		return nil, fmt.Errorf("column: %v is not a float column", r.Type())
	}
	data, buf, err := undoLZ4(r)
	if err != nil {
		return nil, err
	}
	defer release(buf)
	// Divide what is there rather than multiply what the header claims: a
	// count near 2^61 times 8 wraps to a length the data does have.
	if len(data)%8 != 0 || len(data)/8 != r.NumItems() {
		return nil, fmt.Errorf("column: %d data bytes for %d floats", len(data), r.NumItems())
	}
	vals := make([]float64, len(data)/8)
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
	data, buf, err := undoLZ4(r)
	if err != nil {
		return nil, err
	}
	defer release(buf)
	ids, err := codec.DecodeBitPackU32(data)
	if err != nil {
		return nil, err
	}
	if len(ids) != r.NumItems() {
		return nil, fmt.Errorf("column: decoded %d ids, header says %d", len(ids), r.NumItems())
	}
	for _, id := range ids {
		if int(id) >= len(dict) {
			return nil, fmt.Errorf("column: id %d out of dictionary range %d", id, len(dict))
		}
	}
	return &StringColumn{Dict: dict, IDs: ids}, nil
}

// DecodeStringSet decodes a string-set column's dictionary and leaves its
// rows as the block holds them (see StringSetColumn): the column aliases r's
// data section and is good for as long as r's memory is.
func DecodeStringSet(r *layout.RBC) (*StringSetColumn, error) {
	if r.Type() != layout.TypeStringSet {
		return nil, fmt.Errorf("column: %v is not a string-set column", r.Type())
	}
	dict, err := codec.DecodeDict(r.Dict())
	if err != nil {
		return nil, err
	}
	c := &StringSetColumn{Dict: dict, n: r.NumItems(), data: r.Data(), raw: len(r.Data())}
	if c.packed = r.Code().Compressor() == codec.MethodLZ4; c.packed {
		c.raw = r.UncompressedLen()
	}
	// Each row costs at least one byte, and LZ4 grows a byte to at most
	// MaxExpansion: a header that claims more rows than that is corrupt,
	// whatever the rows turn out to hold, and nothing is sized by it.
	if c.n < 0 || c.raw < 0 || c.n > c.raw || c.raw/lz4.MaxExpansion > len(c.data) {
		return nil, fmt.Errorf("column: %d set rows in %d bytes (%d stored)", c.n, c.raw, len(c.data))
	}
	return c, nil
}
