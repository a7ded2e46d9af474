package rowblock

// The row payload: the self-describing encoding of one Row. It is what a
// Scribe message carries (tailer.EncodeRow/DecodeRow). Pinned by
// testdata/row-v1.golden.
//
//	zigzag varint time
//	uvarint ncols
//	per column, names ascending:
//	    uvarint name length, name bytes, u8 type, value
//	        int64/time  zigzag varint
//	        float64     8 bytes LE
//	        string      uvarint length + bytes
//	        string set  uvarint count + (uvarint length + bytes)*

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"scuba/internal/codec"
	"scuba/internal/layout"
)

// ErrBatchCorrupt marks a structurally invalid row payload or batch frame.
var ErrBatchCorrupt = errors.New("rowblock: corrupt row payload or batch frame")

// AppendRowPayload appends r's row payload to dst. Column names are written
// in ascending order so a row encodes identically run to run; map iteration
// order must not leak into payload bytes.
func AppendRowPayload(dst []byte, r Row) ([]byte, error) {
	var stack [16]string
	names := stack[:0]
	for name := range r.Cols {
		names = append(names, name)
	}
	slices.Sort(names)
	dst = binary.AppendUvarint(dst, codec.ZigZag(r.Time))
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, name := range names {
		v := r.Cols[name]
		dst = binary.AppendUvarint(dst, uint64(len(name)))
		dst = append(dst, name...)
		dst = append(dst, byte(v.Type))
		switch v.Type {
		case layout.TypeInt64, layout.TypeTime:
			dst = binary.AppendUvarint(dst, codec.ZigZag(v.Int))
		case layout.TypeFloat64:
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Float))
		case layout.TypeString:
			dst = binary.AppendUvarint(dst, uint64(len(v.Str)))
			dst = append(dst, v.Str...)
		case layout.TypeStringSet:
			dst = binary.AppendUvarint(dst, uint64(len(v.Set)))
			for _, s := range v.Set {
				dst = binary.AppendUvarint(dst, uint64(len(s)))
				dst = append(dst, s...)
			}
		default:
			return nil, fmt.Errorf("rowblock: column %q has no encodable type (%v)", name, v.Type)
		}
	}
	return dst, nil
}

func (r *Reader) valueType() (layout.ValueType, error) {
	b, err := r.Bytes(1)
	if err != nil {
		return 0, err
	}
	vt := layout.ValueType(b[0])
	if !storable(vt) {
		return 0, fmt.Errorf("%w: column type %d", ErrBatchCorrupt, vt)
	}
	return vt, nil
}

// storable reports whether vt is a type a cell can have.
func storable(vt layout.ValueType) bool {
	return vt >= layout.TypeInt64 && vt <= layout.TypeTime
}

// DecodeRowPayload parses the row payload at the head of b and returns the
// row with the number of bytes it occupied.
func DecodeRowPayload(b []byte) (Row, int, error) {
	r := Reader{b: b}
	tu, err := r.Uvarint()
	if err != nil {
		return Row{}, 0, err
	}
	ncols, err := r.Count()
	if err != nil {
		return Row{}, 0, err
	}
	row := Row{Time: codec.UnZigZag(tu), Cols: make(map[string]Value, ncols)}
	for c := 0; c < ncols; c++ {
		name, err := r.Str()
		if err != nil {
			return Row{}, 0, err
		}
		vt, err := r.valueType()
		if err != nil {
			return Row{}, 0, err
		}
		v := Value{Type: vt}
		switch vt {
		case layout.TypeInt64, layout.TypeTime:
			u, err := r.Uvarint()
			if err != nil {
				return Row{}, 0, err
			}
			v.Int = codec.UnZigZag(u)
		case layout.TypeFloat64:
			f, err := r.Bytes(8)
			if err != nil {
				return Row{}, 0, err
			}
			v.Float = math.Float64frombits(binary.LittleEndian.Uint64(f))
		case layout.TypeString:
			if v.Str, err = r.Str(); err != nil {
				return Row{}, 0, err
			}
		case layout.TypeStringSet:
			n, err := r.Count()
			if err != nil {
				return Row{}, 0, err
			}
			if n > 0 {
				v.Set = make([]string, n)
			}
			for j := range v.Set {
				if v.Set[j], err = r.Str(); err != nil {
					return Row{}, 0, err
				}
			}
		}
		row.Cols[name] = v
	}
	return row, r.pos, nil
}
