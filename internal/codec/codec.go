// Package codec implements the column compression methods used by Scuba's
// row block columns: dictionary encoding, delta (zigzag) encoding, bit
// packing, varint encoding, and an LZ4-style block compressor. The paper
// (§2.1) states that Scuba applies at least two methods to every column and
// achieves roughly 30x compression on production data; this package provides
// the same building blocks and composes them the same way.
//
// Every encoder writes self-describing blobs: the first byte of an encoded
// stream is a Method code so decoders can verify they were handed the right
// stream. Higher layers (internal/layout) record the composed method in the
// row block column header's compression-code field.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Method identifies a single compression method. Composed pipelines are
// described by a Code (see below) in the RBC header.
type Method uint8

// Compression methods. The zero value is reserved so that an all-zero
// (uninitialized) buffer never decodes as valid.
const (
	MethodInvalid Method = iota
	MethodRaw            // no transform
	MethodVarint         // unsigned LEB128 varints
	MethodZigZag         // signed -> unsigned zigzag, then varint
	MethodDelta          // delta between consecutive values, zigzag+varint
	MethodBitPack        // fixed-width bit packing
	MethodDeltaBP        // delta, then bit packing of zigzagged deltas
	MethodDict           // dictionary indexes (composed with BitPack)
	MethodLZ4            // LZ4 block compression over the payload
)

func (m Method) String() string {
	switch m {
	case MethodRaw:
		return "raw"
	case MethodVarint:
		return "varint"
	case MethodZigZag:
		return "zigzag"
	case MethodDelta:
		return "delta"
	case MethodBitPack:
		return "bitpack"
	case MethodDeltaBP:
		return "delta+bitpack"
	case MethodDict:
		return "dict"
	case MethodLZ4:
		return "lz4"
	default:
		return fmt.Sprintf("method(%d)", uint8(m))
	}
}

// Code describes the full pipeline applied to a column's values, stored in
// the RBC header (Figure 3: "Compression code"). It packs up to two stages:
// the value transform (low nibble) and the byte-stream compressor (high
// nibble). The paper applies at least two methods per column; a Code of
// (Delta|LZ4) means "delta-encode values, then LZ4 the bytes".
type Code uint8

// NewCode composes a value transform and a byte compressor.
func NewCode(transform, compressor Method) Code {
	return Code(uint8(transform)&0x0f | uint8(compressor)<<4)
}

// Transform returns the value-level stage of the pipeline.
func (c Code) Transform() Method { return Method(uint8(c) & 0x0f) }

// Compressor returns the byte-level stage of the pipeline.
func (c Code) Compressor() Method { return Method(uint8(c) >> 4) }

func (c Code) String() string {
	if c.Compressor() == MethodRaw || c.Compressor() == MethodInvalid {
		return c.Transform().String()
	}
	return c.Transform().String() + "|" + c.Compressor().String()
}

// Errors shared by the decoders.
var (
	ErrCorrupt  = errors.New("codec: corrupt stream")
	ErrMethod   = errors.New("codec: unexpected method byte")
	ErrOverflow = errors.New("codec: varint overflows 64 bits")
)

// ZigZag maps signed integers to unsigned so small magnitudes stay small.
func ZigZag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// UnZigZag inverts ZigZag.
func UnZigZag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// AppendUvarint appends v in LEB128 form.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// Uvarint decodes a LEB128 value, returning the value and bytes consumed.
func Uvarint(src []byte) (uint64, int, error) {
	v, n := binary.Uvarint(src)
	if n <= 0 {
		if n == 0 {
			return 0, 0, ErrCorrupt
		}
		return 0, 0, ErrOverflow
	}
	return v, n, nil
}
