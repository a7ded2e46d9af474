package rowblock

// The batch frame: the columnar encoding of one ingest batch, and Batch, its
// decoded form. A tailer's client transposes its rows into a frame once; the
// same bytes travel the wire, become the WAL record payload, and are decoded
// once into column vectors that the block builder appends whole. Pinned by
// testdata/frame-v1.golden.
//
//	u32     magic "SBF1"
//	u8      version (1)
//	uvarint nrows
//	uvarint ncols
//	per column, names strictly ascending: uvarint name length, name bytes, u8 type
//	time vector: nrows zigzag varints
//	per column, one value vector of nrows cells (an absent cell is the type's
//	zero value, which is what the builder stores for it anyway):
//	    int64/time  nrows zigzag varints
//	    float64     nrows x 8 bytes LE
//	    string      nrows uvarint lengths, then the bytes back to back
//	    string set  nrows uvarint counts, then one uvarint length per element,
//	                then the element bytes back to back
//	u32     CRC-32C over everything above
//
// Lengths ahead of bytes lets the decoder turn a whole column's text into one
// string and hand out substrings: allocations per batch are O(columns), not
// O(cells).

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"scuba/internal/layout"
)

const (
	frameMagic   uint32 = 0x31464253 // "SBF1"
	frameVersion byte   = 1
)

// Batch is a decoded ingest batch: a time vector and one dense value vector
// per column, every vector Rows() long.
type Batch struct {
	Times []int64
	// Cols is sorted by name, names unique and never TimeColumn.
	Cols []BatchColumn

	lens []int // Decode's length scratch
}

// BatchColumn is one column of a batch. Exactly the vector matching Type is
// populated: Ints for int64/time, Floats, Strs, or Sets.
type BatchColumn struct {
	Name   string
	Type   layout.ValueType
	Ints   []int64
	Floats []float64
	Strs   []string
	Sets   [][]string
	elems  []string // Decode's set element array, reused like the vectors
}

// Rows returns the number of rows in the batch.
func (b *Batch) Rows() int { return len(b.Times) }

// Slice returns rows [i, j) as a batch sharing b's vectors.
func (b *Batch) Slice(i, j int) *Batch {
	out := &Batch{Times: b.Times[i:j], Cols: make([]BatchColumn, len(b.Cols))}
	for k := range b.Cols {
		out.Cols[k] = b.Cols[k].slice(i, j)
	}
	return out
}

// slice returns cells [i, j) of the column, sharing c's vector but with the
// capacity clipped, so an append to the result never writes into c.
func (c *BatchColumn) slice(i, j int) BatchColumn {
	out := BatchColumn{Name: c.Name, Type: c.Type}
	switch c.Type {
	case layout.TypeInt64, layout.TypeTime:
		out.Ints = c.Ints[i:j:j]
	case layout.TypeFloat64:
		out.Floats = c.Floats[i:j:j]
	case layout.TypeString:
		out.Strs = c.Strs[i:j:j]
	case layout.TypeStringSet:
		out.Sets = c.Sets[i:j:j]
	}
	return out
}

// FromRows transposes rows into a batch. A row naming the reserved time
// column fails with ErrReservedName; rows that disagree on a column's type
// fail with ErrTypeConflict — the batch is rejected whole.
func FromRows(rows []Row) (*Batch, error) {
	n := len(rows)
	b := &Batch{Times: make([]int64, n)}
	index := make(map[string]int)
	for i, r := range rows {
		b.Times[i] = r.Time
		for name, v := range r.Cols {
			k, ok := index[name]
			if !ok {
				if name == TimeColumn {
					return nil, ErrReservedName
				}
				k = len(b.Cols)
				index[name] = k
				if !storable(v.Type) {
					return nil, fmt.Errorf("rowblock: column %q has no storable type (%v)", name, v.Type)
				}
				c := BatchColumn{Name: name, Type: v.Type}
				c.backfill(n, n)
				b.Cols = append(b.Cols, c)
			}
			c := &b.Cols[k]
			if c.Type != v.Type {
				return nil, fmt.Errorf("%w: column %q is %v, row %d has %v", ErrTypeConflict, name, c.Type, i, v.Type)
			}
			switch c.Type {
			case layout.TypeInt64, layout.TypeTime:
				c.Ints[i] = v.Int
			case layout.TypeFloat64:
				c.Floats[i] = v.Float
			case layout.TypeString:
				c.Strs[i] = v.Str
			case layout.TypeStringSet:
				c.Sets[i] = v.Set
			}
		}
	}
	slices.SortFunc(b.Cols, func(x, y BatchColumn) int { return cmp.Compare(x.Name, y.Name) })
	return b, nil
}

// AppendFrame appends the batch's frame to dst.
func (b *Batch) AppendFrame(dst []byte) []byte {
	base := len(dst)
	dst = AppendFrameHeader(dst, frameMagic, frameVersion)
	dst = binary.AppendUvarint(dst, uint64(len(b.Times)))
	dst = binary.AppendUvarint(dst, uint64(len(b.Cols)))
	for _, c := range b.Cols {
		dst = binary.AppendUvarint(dst, uint64(len(c.Name)))
		dst = append(dst, c.Name...)
		dst = append(dst, byte(c.Type))
	}
	dst = AppendInts(dst, b.Times)
	for _, c := range b.Cols {
		switch c.Type {
		case layout.TypeInt64, layout.TypeTime:
			dst = AppendInts(dst, c.Ints)
		case layout.TypeFloat64:
			dst = AppendFloats(dst, c.Floats)
		case layout.TypeString:
			dst = AppendStrs(dst, c.Strs)
		case layout.TypeStringSet:
			dst = AppendSets(dst, c.Sets)
		}
	}
	return SealFrame(dst, base)
}

// DecodeFrame parses one whole frame into a new batch. The input is
// untrusted (it arrives over the wire and from disk): a bad magic, version or
// checksum, a count the buffer cannot hold, unsorted or duplicate column
// names, or trailing bytes all fail with ErrBatchCorrupt; a column named
// "time" fails with ErrReservedName. The batch does not alias frame.
func DecodeFrame(frame []byte) (*Batch, error) {
	b := new(Batch)
	if err := b.Decode(frame); err != nil {
		return nil, err
	}
	return b, nil
}

// Decode parses one whole frame into b as DecodeFrame does, reusing b's
// vectors, set element arrays and length scratch: what b held before is
// gone, and on an error b holds nothing usable. Only the string text is new
// on every call (a builder keeps no string or set: it interns them).
func (b *Batch) Decode(frame []byte) error {
	r, err := OpenFrame(frame, frameMagic, frameVersion)
	if err != nil {
		return err
	}
	r.lens = b.lens
	nrows, err := r.Count()
	if err != nil {
		return err
	}
	ncols, err := r.Count()
	if err != nil {
		return err
	}
	b.Cols = resize(b.Cols, ncols)
	for k := range b.Cols {
		c := &b.Cols[k]
		if c.Name, err = r.Str(); err != nil {
			return err
		}
		if c.Type, err = r.valueType(); err != nil {
			return err
		}
		if c.Name == TimeColumn {
			return ErrReservedName
		}
		if k > 0 && b.Cols[k-1].Name >= c.Name {
			return fmt.Errorf("%w: column %q out of order", ErrBatchCorrupt, c.Name)
		}
	}
	if b.Times, err = r.Ints(b.Times, nrows); err != nil {
		return err
	}
	for k := range b.Cols {
		c := &b.Cols[k]
		// Only the vector matching the type holds cells; the rest keep arrays.
		c.Ints, c.Floats, c.Strs, c.Sets = c.Ints[:0], c.Floats[:0], c.Strs[:0], c.Sets[:0]
		switch c.Type {
		case layout.TypeInt64, layout.TypeTime:
			c.Ints, err = r.Ints(c.Ints, nrows)
		case layout.TypeFloat64:
			c.Floats, err = r.Floats(c.Floats, nrows)
		case layout.TypeString:
			c.Strs, err = r.Strs(c.Strs, nrows)
		case layout.TypeStringSet:
			c.Sets, c.elems, err = r.Sets(c.Sets, c.elems, nrows)
		}
		if err != nil {
			return fmt.Errorf("column %q: %w", c.Name, err)
		}
	}
	b.lens = r.lens
	if r.Left() != 0 {
		return fmt.Errorf("%w: %d trailing frame bytes", ErrBatchCorrupt, r.Left())
	}
	return nil
}
