package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"scuba/internal/codec"
	"scuba/internal/column"
	"scuba/internal/layout"
	"scuba/internal/rowblock"
)

// The row format is the paper's original disk backup encoding: row-oriented,
// deliberately different from the in-memory layout, so that recovering from
// it must translate every row back into column blocks — rebuild dictionaries,
// re-encode, re-compress. That translation is what made a disk restart take
// 2.5-3 hours where reading the bytes took 20-25 minutes (§1). No leaf code
// path reaches this codec any more: the store keeps RBK2 images only. It
// survives here, where E1 and E8 time it (translateRowFormat) to reproduce
// the paper's translate cost.

// errCorruptFile is returned by decodeRowFormat for damaged input.
var errCorruptFile = errors.New("corrupt row-format file")

// ---- Row format ----
//
//	u32 magic "DRW1"; u32 version
//	u64 row count; i64 created
//	u16 ncols; per column: u16 name len, name, u8 type  (time first)
//	rows: per row, each column's value in schema order:
//	    int64/time   zigzag varint
//	    float64      8 bytes LE
//	    string       varint len + bytes
//	    string set   varint count + (varint len + bytes)*
//	u32 CRC-32C over everything before it

const rowMagic uint32 = 0x31575244 // "DRW1"
const rowVersion uint32 = 1

var crcTable = crc32.MakeTable(crc32.Castagnoli)

type decodedColumns struct {
	ints   [][]int64
	floats [][]float64
	strs   []*column.StringColumn
	sets   [][][]string
}

// encodeRowFormat decodes every column of the block (paying decompression)
// and re-serializes row by row.
func encodeRowFormat(rb *rowblock.RowBlock) ([]byte, error) {
	schema := rb.Schema()
	n := rb.Rows()
	hdr := rb.Header()

	cols := decodedColumns{
		ints:   make([][]int64, len(schema)),
		floats: make([][]float64, len(schema)),
		strs:   make([]*column.StringColumn, len(schema)),
		sets:   make([][][]string, len(schema)),
	}
	for i, f := range schema {
		col, err := rb.DecodeColumn(f.Name)
		if err != nil {
			return nil, err
		}
		switch c := col.(type) {
		case *column.Int64Column:
			cols.ints[i] = c.Values
		case *column.Float64Column:
			cols.floats[i] = c.Values
		case *column.StringColumn:
			cols.strs[i] = c
		case *column.StringSetColumn:
			if cols.sets[i], err = c.Values(); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("disk: unsupported column %T", col)
		}
	}

	var b []byte
	b = binary.LittleEndian.AppendUint32(b, rowMagic)
	b = binary.LittleEndian.AppendUint32(b, rowVersion)
	b = binary.LittleEndian.AppendUint64(b, uint64(n))
	b = binary.LittleEndian.AppendUint64(b, uint64(hdr.Created))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(schema)))
	for _, f := range schema {
		b = binary.LittleEndian.AppendUint16(b, uint16(len(f.Name)))
		b = append(b, f.Name...)
		b = append(b, byte(f.Type))
	}
	for r := 0; r < n; r++ {
		for i, f := range schema {
			switch f.Type {
			case layout.TypeInt64, layout.TypeTime:
				b = binary.AppendUvarint(b, codec.ZigZag(cols.ints[i][r]))
			case layout.TypeFloat64:
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(cols.floats[i][r]))
			case layout.TypeString:
				s := cols.strs[i].Value(r)
				b = binary.AppendUvarint(b, uint64(len(s)))
				b = append(b, s...)
			case layout.TypeStringSet:
				set := cols.sets[i][r]
				b = binary.AppendUvarint(b, uint64(len(set)))
				for _, s := range set {
					b = binary.AppendUvarint(b, uint64(len(s)))
					b = append(b, s...)
				}
			default:
				return nil, fmt.Errorf("disk: cannot serialize column type %v", f.Type)
			}
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crcTable)), nil
}

// decodeRowFormat translates a row-format file back into a column block:
// the rows are transposed into one batch and re-ingested through a
// rowblock.Builder, rebuilding dictionaries and re-compressing every column. This is the CPU-intensive
// translation the paper describes (§1, §6).
func decodeRowFormat(data []byte) (*rowblock.RowBlock, error) {
	if len(data) < 4+4+8+8+2+4 {
		return nil, fmt.Errorf("%w: %d bytes", errCorruptFile, len(data))
	}
	body, want := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, crcTable) != want {
		return nil, fmt.Errorf("%w: checksum", errCorruptFile)
	}
	if binary.LittleEndian.Uint32(body) != rowMagic {
		return nil, fmt.Errorf("%w: magic", errCorruptFile)
	}
	if v := binary.LittleEndian.Uint32(body[4:]); v != rowVersion {
		return nil, fmt.Errorf("%w: version %d", errCorruptFile, v)
	}
	n := int(binary.LittleEndian.Uint64(body[8:]))
	created := int64(binary.LittleEndian.Uint64(body[16:]))
	ncols := int(binary.LittleEndian.Uint16(body[24:]))
	pos := 26
	schema := make(rowblock.Schema, 0, ncols)
	for i := 0; i < ncols; i++ {
		if pos+2 > len(body) {
			return nil, fmt.Errorf("%w: truncated schema", errCorruptFile)
		}
		l := int(binary.LittleEndian.Uint16(body[pos:]))
		pos += 2
		if pos+l+1 > len(body) {
			return nil, fmt.Errorf("%w: truncated schema entry", errCorruptFile)
		}
		schema = append(schema, rowblock.Field{
			Name: string(body[pos : pos+l]),
			Type: layout.ValueType(body[pos+l]),
		})
		pos += l + 1
	}
	if len(schema) == 0 || schema[0].Name != rowblock.TimeColumn {
		return nil, fmt.Errorf("%w: first column is not time", errCorruptFile)
	}

	readUvarint := func() (uint64, error) {
		v, used := binary.Uvarint(body[pos:])
		if used <= 0 {
			return 0, fmt.Errorf("%w: bad varint at %d", errCorruptFile, pos)
		}
		pos += used
		return v, nil
	}
	readString := func() (string, error) {
		l, err := readUvarint()
		if err != nil {
			return "", err
		}
		if uint64(len(body)-pos) < l {
			return "", fmt.Errorf("%w: string overruns file", errCorruptFile)
		}
		s := string(body[pos : pos+int(l)])
		pos += int(l)
		return s, nil
	}

	// The file's schema is fixed, so its rows decode straight into the column
	// vectors of one batch, which the builder appends whole.
	if t := schema[0].Type; t != layout.TypeInt64 && t != layout.TypeTime {
		return nil, fmt.Errorf("%w: time column has type %v", errCorruptFile, t)
	}
	bt := &rowblock.Batch{Cols: make([]rowblock.BatchColumn, ncols-1)}
	seen := make(map[string]bool, ncols)
	for i, f := range schema {
		if seen[f.Name] {
			return nil, fmt.Errorf("%w: duplicate column %q", errCorruptFile, f.Name)
		}
		seen[f.Name] = true
		if i > 0 {
			bt.Cols[i-1] = rowblock.BatchColumn{Name: f.Name, Type: f.Type}
			if f.Type == layout.TypeTime {
				bt.Cols[i-1].Type = layout.TypeInt64
			}
		}
	}
	for r := 0; r < n; r++ {
		for i, f := range schema {
			var c *rowblock.BatchColumn
			if i > 0 {
				c = &bt.Cols[i-1]
			}
			switch f.Type {
			case layout.TypeInt64, layout.TypeTime:
				u, err := readUvarint()
				if err != nil {
					return nil, err
				}
				if i == 0 {
					bt.Times = append(bt.Times, codec.UnZigZag(u))
				} else {
					c.Ints = append(c.Ints, codec.UnZigZag(u))
				}
			case layout.TypeFloat64:
				if pos+8 > len(body) {
					return nil, fmt.Errorf("%w: float overruns file", errCorruptFile)
				}
				c.Floats = append(c.Floats, math.Float64frombits(binary.LittleEndian.Uint64(body[pos:])))
				pos += 8
			case layout.TypeString:
				s, err := readString()
				if err != nil {
					return nil, err
				}
				c.Strs = append(c.Strs, s)
			case layout.TypeStringSet:
				count, err := readUvarint()
				if err != nil {
					return nil, err
				}
				set := make([]string, 0, count)
				for j := uint64(0); j < count; j++ {
					s, err := readString()
					if err != nil {
						return nil, err
					}
					set = append(set, s)
				}
				c.Sets = append(c.Sets, set)
			default:
				return nil, fmt.Errorf("%w: column type %v", errCorruptFile, f.Type)
			}
		}
	}
	builder := rowblock.NewBuilder(created)
	if took, err := builder.AppendBatch(bt); err != nil || took < n {
		if err == nil {
			err = rowblock.ErrFull
		}
		return nil, fmt.Errorf("disk: translating %d rows: %w", n, err)
	}
	if pos != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", errCorruptFile, len(body)-pos)
	}
	return builder.Seal()
}
