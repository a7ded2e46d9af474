package rowblock

// The row payload: the self-describing encoding of one Row. It is what a
// Scribe message carries (tailer.EncodeRow/DecodeRow) and what version-1 WAL
// records hold back to back, so a log written by an older binary replays
// through the same decoder. Pinned by testdata/row-v1.golden.
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

	"scuba/internal/layout"
)

// ErrBatchCorrupt marks a structurally invalid row payload or batch frame.
var ErrBatchCorrupt = errors.New("rowblock: corrupt row payload or batch frame")

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

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
	dst = binary.AppendUvarint(dst, zigzag(r.Time))
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, name := range names {
		v := r.Cols[name]
		dst = binary.AppendUvarint(dst, uint64(len(name)))
		dst = append(dst, name...)
		dst = append(dst, byte(v.Type))
		switch v.Type {
		case layout.TypeInt64, layout.TypeTime:
			dst = binary.AppendUvarint(dst, zigzag(v.Int))
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

// reader walks an untrusted buffer; every accessor bounds-checks and reports
// ErrBatchCorrupt instead of over-reading.
type reader struct {
	b   []byte
	pos int
}

func (r *reader) left() int { return len(r.b) - r.pos }

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint at %d", ErrBatchCorrupt, r.pos)
	}
	r.pos += n
	return v, nil
}

// count reads a uvarint that announces how many items follow, each at least
// one byte long: anything the buffer cannot hold is rejected before a caller
// sizes an allocation with it.
func (r *reader) count() (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(r.left()) {
		return 0, fmt.Errorf("%w: count %d overruns %d remaining bytes", ErrBatchCorrupt, v, r.left())
	}
	return int(v), nil
}

func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || n > r.left() {
		return nil, fmt.Errorf("%w: %d bytes overrun the buffer at %d", ErrBatchCorrupt, n, r.pos)
	}
	b := r.b[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

func (r *reader) str() (string, error) {
	n, err := r.count()
	if err != nil {
		return "", err
	}
	b, err := r.bytes(n)
	return string(b), err
}

func (r *reader) valueType() (layout.ValueType, error) {
	b, err := r.bytes(1)
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
	r := reader{b: b}
	tu, err := r.uvarint()
	if err != nil {
		return Row{}, 0, err
	}
	ncols, err := r.count()
	if err != nil {
		return Row{}, 0, err
	}
	row := Row{Time: unzigzag(tu), Cols: make(map[string]Value, ncols)}
	for c := 0; c < ncols; c++ {
		name, err := r.str()
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
			u, err := r.uvarint()
			if err != nil {
				return Row{}, 0, err
			}
			v.Int = unzigzag(u)
		case layout.TypeFloat64:
			f, err := r.bytes(8)
			if err != nil {
				return Row{}, 0, err
			}
			v.Float = math.Float64frombits(binary.LittleEndian.Uint64(f))
		case layout.TypeString:
			if v.Str, err = r.str(); err != nil {
				return Row{}, 0, err
			}
		case layout.TypeStringSet:
			n, err := r.count()
			if err != nil {
				return Row{}, 0, err
			}
			if n > 0 {
				v.Set = make([]string, n)
			}
			for j := range v.Set {
				if v.Set[j], err = r.str(); err != nil {
					return Row{}, 0, err
				}
			}
		}
		row.Cols[name] = v
	}
	return row, r.pos, nil
}
