package codec

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Bit packing stores each value in exactly w bits, where w is the number of
// bits needed for the largest value in the block. Dictionary indexes and
// zigzagged deltas are packed this way (§2.1). Layout:
//
//	[method byte][count varint][width byte][packed little-endian bit stream]
//
// A width of zero is legal and means every value is zero (the stream is
// empty); this happens for constant columns after delta encoding.

// maxBitPackItems caps decoded item counts. Zero-width packing encodes any
// count in O(1) bytes, so the count cannot be validated against the payload
// size; this cap (far above the 65,536-row block limit) bounds what a
// corrupt stream can make the decoder allocate.
const maxBitPackItems = 1 << 26

// BitWidth returns the number of bits needed to represent v (0 for v == 0).
func BitWidth(v uint64) int { return bits.Len64(v) }

// maxBitWidth returns the width of the largest value.
func maxBitWidth(values []uint64) int {
	w := 0
	for _, v := range values {
		if bw := bits.Len64(v); bw > w {
			w = bw
		}
	}
	return w
}

// EncodeBitPackU64 packs values at the minimal fixed width.
func EncodeBitPackU64(dst []byte, values []uint64) []byte {
	w := maxBitWidth(values)
	dst = append(dst, byte(MethodBitPack))
	dst = binary.AppendUvarint(dst, uint64(len(values)))
	dst = append(dst, byte(w))
	if w == 0 {
		return dst
	}
	nbytes := (len(values)*w + 7) / 8
	// Write through a 16-byte-padded scratch buffer so every value can be
	// stored with at most two unconditional 64-bit writes, even when the
	// value straddles a word boundary at full 64-bit width.
	buf := make([]byte, nbytes+16)
	bitpos := 0
	for _, v := range values {
		bytePos, bitOff := bitpos/8, bitpos%8
		u := binary.LittleEndian.Uint64(buf[bytePos:])
		u |= v << uint(bitOff)
		binary.LittleEndian.PutUint64(buf[bytePos:], u)
		if bitOff+w > 64 {
			u2 := binary.LittleEndian.Uint64(buf[bytePos+8:])
			u2 |= v >> uint(64-bitOff)
			binary.LittleEndian.PutUint64(buf[bytePos+8:], u2)
		}
		bitpos += w
	}
	return append(dst, buf[:nbytes]...)
}

// bitPackHeader parses the [method][count][width] prefix of a bit-packed
// stream and returns the packed bits. Both numbers come from outside: the
// count is capped, and checked against the bytes present before a caller
// sizes anything by it.
func bitPackHeader(src []byte) (n, w int, packed []byte, err error) {
	if len(src) == 0 || Method(src[0]) != MethodBitPack {
		return 0, 0, nil, ErrMethod
	}
	src = src[1:]
	n64, used, err := Uvarint(src)
	if err != nil {
		return 0, 0, nil, err
	}
	src = src[used:]
	if len(src) == 0 {
		return 0, 0, nil, ErrCorrupt
	}
	w = int(src[0])
	src = src[1:]
	if w > 64 {
		return 0, 0, nil, fmt.Errorf("%w: bit width %d", ErrCorrupt, w)
	}
	if n64 > maxBitPackItems {
		return 0, 0, nil, fmt.Errorf("%w: %d items", ErrCorrupt, n64)
	}
	n = int(n64)
	need := (n*w + 7) / 8
	if len(src) < need {
		return 0, 0, nil, fmt.Errorf("%w: need %d packed bytes, have %d", ErrCorrupt, need, len(src))
	}
	return n, w, src[:need], nil
}

// unpackBits reads len(dst) values of w bits each (1 <= w <= 64) from packed
// straight into their final slice. A value is at most two 64-bit loads; the
// loads stay inside packed until its last 16 bytes, and the few values there
// are read through a zero-padded copy — no copy of the whole stream.
func unpackBits[T uint32 | uint64 | int64](dst []T, packed []byte, w int) {
	mask := ^uint64(0) >> uint(64-w)
	get := func(b []byte, bitpos int) T {
		p, off := bitpos>>3, uint(bitpos&7)
		v := binary.LittleEndian.Uint64(b[p:]) >> off
		if off+uint(w) > 64 {
			v |= binary.LittleEndian.Uint64(b[p+8:]) << (64 - off)
		}
		return T(v & mask)
	}
	i, bitpos := 0, 0
	for ; i < len(dst) && bitpos>>3+16 <= len(packed); i++ {
		dst[i] = get(packed, bitpos)
		bitpos += w
	}
	if i == len(dst) {
		return
	}
	var tail [32]byte
	base := bitpos >> 3
	copy(tail[:], packed[base:])
	for ; i < len(dst); i++ {
		dst[i] = get(tail[:], bitpos-base*8)
		bitpos += w
	}
}

// DecodeBitPackU64 decodes a stream produced by EncodeBitPackU64.
func DecodeBitPackU64(src []byte) ([]uint64, error) { return decodeBitPack[uint64](src, 64) }

// DecodeBitPackU32 decodes a stream of values that fit 32 bits — dictionary
// IDs — straight into a []uint32. A wider stream is corrupt: the encoder
// packs at the width of the largest value.
func DecodeBitPackU32(src []byte) ([]uint32, error) { return decodeBitPack[uint32](src, 32) }

func decodeBitPack[T uint32 | uint64](src []byte, maxWidth int) ([]T, error) {
	n, w, packed, err := bitPackHeader(src)
	if err != nil {
		return nil, err
	}
	if w > maxWidth {
		return nil, fmt.Errorf("%w: %d-bit values, at most %d fit", ErrCorrupt, w, maxWidth)
	}
	out := make([]T, n)
	if w > 0 {
		unpackBits(out, packed, w)
	}
	return out, nil
}

// EncodeDeltaBPI64 delta-encodes signed values, zigzags the deltas, and bit
// packs them: the standard pipeline for the required "time" column, whose
// rows arrive in roughly chronological order (§2.1). Layout:
//
//	[method byte][count varint][first value zigzag varint][bitpacked zigzag deltas]
func EncodeDeltaBPI64(dst []byte, values []int64) []byte {
	dst = append(dst, byte(MethodDeltaBP))
	dst = binary.AppendUvarint(dst, uint64(len(values)))
	if len(values) == 0 {
		return dst
	}
	dst = binary.AppendUvarint(dst, ZigZag(values[0]))
	deltas := make([]uint64, len(values)-1)
	for i := 1; i < len(values); i++ {
		deltas[i-1] = ZigZag(values[i] - values[i-1])
	}
	return EncodeBitPackU64(dst, deltas)
}

// DecodeDeltaBPI64 decodes a stream produced by EncodeDeltaBPI64 into dst,
// which is reused when it is large enough and may be nil. The zigzagged
// deltas are unpacked into the output and summed in place.
func DecodeDeltaBPI64(dst []int64, src []byte) ([]int64, error) {
	if len(src) == 0 || Method(src[0]) != MethodDeltaBP {
		return nil, ErrMethod
	}
	src = src[1:]
	count, used, err := Uvarint(src)
	if err != nil {
		return nil, err
	}
	src = src[used:]
	if count == 0 {
		return dst[:0], nil
	}
	first, used, err := Uvarint(src)
	if err != nil {
		return nil, err
	}
	n, w, packed, err := bitPackHeader(src[used:])
	if err != nil {
		return nil, err
	}
	if uint64(n)+1 != count {
		return nil, fmt.Errorf("%w: count %d but %d deltas", ErrCorrupt, count, n)
	}
	if cap(dst) < n+1 {
		dst = make([]int64, n+1)
	}
	dst = dst[:n+1]
	dst[0] = UnZigZag(first)
	if w == 0 {
		clear(dst[1:])
	} else {
		unpackBits(dst[1:], packed, w)
	}
	for i := 1; i < len(dst); i++ {
		dst[i] = dst[i-1] + UnZigZag(uint64(dst[i]))
	}
	return dst, nil
}
