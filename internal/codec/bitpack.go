package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Bit packing stores each value in exactly w bits, where w is the number of
// bits needed for the largest value in the block. Dictionary indexes and
// zigzagged deltas are packed this way (§2.1). Layout:
//
//	[method byte][count varint][width byte][packed little-endian bit stream]
//
// A width of zero is legal and means every value is zero (the stream is
// empty); this happens for constant columns after delta encoding.
//
// The kernels move a 64-bit word at a time both ways: the encoder fills a
// register and appends it whole, the decoder refills one from the stream and
// takes each value off its low end (a width that divides 64 takes a word's
// 64/w values in a row). Value i lies at bit i*w of the stream, its low bit
// first, however it was written.

// maxBitPackItems caps decoded item counts. Zero-width packing encodes any
// count in O(1) bytes, so the count cannot be validated against the payload
// size; this cap (far above the 65,536-row block limit) bounds what a
// corrupt stream can make the decoder allocate.
const maxBitPackItems = 1 << 26

// EncodeBitPackU64 packs values at the minimal fixed width.
func EncodeBitPackU64(dst []byte, values []uint64) []byte {
	var all uint64 // the OR of the values is as wide as the widest of them
	for _, v := range values {
		all |= v
	}
	w := bits.Len64(all)
	dst = appendBitPackHeader(dst, len(values), w)
	if w == 0 {
		return dst
	}
	p := newPacker(dst, len(values), w)
	for _, v := range values {
		p.put(v)
	}
	return p.flush()
}

func appendBitPackHeader(dst []byte, n, w int) []byte {
	dst = append(dst, byte(MethodBitPack))
	dst = binary.AppendUvarint(dst, uint64(n))
	return append(dst, byte(w))
}

// packer appends w-bit values (1 <= w <= 64, each below 2^w) to a stream a
// word at a time: acc holds the n bits not yet appended, low-aligned.
type packer struct {
	out  []byte
	acc  uint64
	n, w uint
}

// newPacker returns a packer appending to dst, grown once for n values.
func newPacker(dst []byte, n, w int) packer {
	return packer{out: slices.Grow(dst, (n*w+7)/8), w: uint(w)}
}

func (p *packer) put(v uint64) {
	p.acc |= v << (p.n & 63)
	if p.n += p.w; p.n >= 64 {
		p.out = binary.LittleEndian.AppendUint64(p.out, p.acc)
		p.n -= 64
		// The bits of v the word had no room for, none when v ended the word
		// (the mask: at w = 64 the shift is then 0, not 64).
		p.acc = v >> ((p.w - p.n) & 63) & -uint64(min(p.n, 1))
	}
}

// flush appends the last, partial word's bytes and returns the stream.
func (p *packer) flush() []byte {
	for ; p.n > 0; p.n -= min(p.n, 8) {
		p.out = append(p.out, byte(p.acc))
		p.acc >>= 8
	}
	return p.out
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

// unpackSplit divides the decode of n w-bit values (1 <= w <= 64) from
// packed, which holds exactly their bytes: the first k lie wholly inside
// packed's whole words, and a kernel reads those in place; the rest, whose
// bits reach into the last, partial word, are read from tail, a zero-padded
// copy of packed from the byte their bits start in, skipping the first off
// bits. No copy of the whole stream is made.
func unpackSplit(n int, packed []byte, w int) (k int, words []byte, tail [24]byte, off uint) {
	full := len(packed) / 8
	k = min(n, full*64/w)
	if k < n {
		base := k * w / 8
		copy(tail[:], packed[base:])
		off = uint(k*w - base*8)
	}
	return k, packed[:full*8], tail, off
}

// unpackBits reads len(dst) values of w bits each (1 <= w <= 64) from packed.
func unpackBits[T uint32 | uint64](dst []T, packed []byte, w int) {
	k, words, tail, off := unpackSplit(len(dst), packed, w)
	unpackWords(dst[:k], words, uint(w), 0)
	unpackWords(dst[k:], tail[:], uint(w), off)
}

// unpackWords reads len(dst) w-bit values from src's whole words, starting
// off bits into the first; src holds every bit they need.
func unpackWords[T uint32 | uint64](dst []T, src []byte, w, off uint) {
	if len(dst) == 0 {
		return
	}
	if off == 0 && 64%w == 0 {
		unpackWordsWhole(dst, src, w)
		return
	}
	// 1 <= w <= 63 here: a 64-bit width divides 64. acc holds the stream's
	// next nacc bits, low-aligned, and zeros above them.
	mask := ^uint64(0) >> (64 - w)
	acc := binary.LittleEndian.Uint64(src) >> off
	nacc, p := 64-off, 8
	for i := range dst {
		if nacc >= w {
			dst[i] = T(acc & mask)
			acc >>= w & 63
			nacc -= w
			continue
		}
		word := binary.LittleEndian.Uint64(src[p:])
		p += 8
		dst[i] = T((acc | word<<(nacc&63)) & mask)
		acc = word >> ((w - nacc) & 63)
		nacc += 64 - w
	}
}

// unpackWordsWhole is unpackWords for a width that divides 64, from the
// start of src: each word holds 64/w values and nothing of the next one. (A
// kernel of its own, it keeps every variable of its loop in a register.)
func unpackWordsWhole[T uint32 | uint64](dst []T, src []byte, w uint) {
	mask, per := ^uint64(0)>>(64-w), int(64/w)
	for i, p := 0, 0; i < len(dst); i, p = i+per, p+8 {
		word := binary.LittleEndian.Uint64(src[p:])
		chunk := dst[i:min(i+per, len(dst))]
		for j := range chunk {
			chunk[j] = T(word & mask)
			word >>= w & 63
		}
	}
}

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
//
// The deltas are made twice, once for their width and once into the packer,
// and never stored.
func EncodeDeltaBPI64(dst []byte, values []int64) []byte {
	dst = append(dst, byte(MethodDeltaBP))
	dst = binary.AppendUvarint(dst, uint64(len(values)))
	if len(values) == 0 {
		return dst
	}
	dst = binary.AppendUvarint(dst, ZigZag(values[0]))
	var all uint64
	for i := 1; i < len(values); i++ {
		all |= ZigZag(values[i] - values[i-1])
	}
	w := bits.Len64(all)
	dst = appendBitPackHeader(dst, len(values)-1, w)
	if w == 0 {
		return dst
	}
	p := newPacker(dst, len(values)-1, w)
	for i := 1; i < len(values); i++ {
		p.put(ZigZag(values[i] - values[i-1]))
	}
	return p.flush()
}

// DecodeDeltaBPI64 decodes a stream produced by EncodeDeltaBPI64 into dst,
// which is reused when it is large enough and may be nil. The zigzagged
// deltas are unpacked and summed in one pass.
func DecodeDeltaBPI64(dst []int64, src []byte) ([]int64, error) {
	n, first, w, packed, err := deltaStream(src)
	if err != nil {
		return nil, err
	}
	if cap(dst) < n {
		dst = make([]int64, n)
	}
	dst = dst[:n]
	if n == 0 {
		return dst, nil
	}
	dst[0] = first
	if w == 0 {
		for i := range dst[1:] {
			dst[1+i] = first
		}
		return dst, nil
	}
	k, words, tail, off := unpackSplit(n-1, packed, w)
	unpackDeltas(dst[1:k+1], words, uint(w), 0, first)
	unpackDeltas(dst[k+1:], tail[:], uint(w), off, dst[k])
	return dst, nil
}

// searchChunk is how many values SearchDeltaBPI64 holds at once: 4 KB on the
// stack, and a multiple of 64, so that a chunk's deltas start on a word.
const searchChunk = 512

// SearchDeltaBPI64 finds where [from, to] lies in the n values of a stream
// produced by EncodeDeltaBPI64 when they ascend (no value below the one
// before it): the values [lo, hi). It decodes them as DecodeDeltaBPI64 does,
// a chunk at a time into a buffer on the stack, and keeps none, so a reader
// that needs only the range writes nothing to memory. ascending is false,
// and lo and hi mean nothing, when a value falls — as soon as a delta is
// negative — or when a step is wider than MaxInt64, which reads as a fall.
func SearchDeltaBPI64(src []byte, from, to int64) (n, lo, hi int, ascending bool, err error) {
	n, first, w, packed, err := deltaStream(src)
	if err != nil || n == 0 {
		return n, 0, 0, err == nil, err
	}
	var buf [searchChunk]int64
	// Without a negative delta the values ascend unless a sum wrapped past
	// MaxInt64, which n deltas below 2^(w-1) each cannot do from the first
	// value when they are too few or too narrow; otherwise each chunk is
	// looked at.
	mhi, mlo := bits.Mul64(uint64(n), uint64(1)<<max(w-1, 0))
	look := mhi != 0 || mlo > uint64(math.MaxInt64)-uint64(first)
	buf[0] = first
	lo, hi = searchCount(buf[:1], from, to)
	if w == 0 {
		return n, lo * n, hi * n, true, nil
	}
	k, words, tail, off := unpackSplit(n-1, packed, w)
	prev := first
	next := func(chunk []int64, src []byte, off uint) bool {
		if unpackDeltas(chunk, src, uint(w), off, prev) < 0 || look && (chunk[0] < prev || !slices.IsSorted(chunk)) {
			return false
		}
		prev = chunk[len(chunk)-1]
		l, h := searchCount(chunk, from, to)
		lo, hi = lo+l, hi+h
		return true
	}
	for c := 0; c < k; c += searchChunk {
		if !next(buf[:min(searchChunk, k-c)], words[c*w/8:], 0) {
			return n, 0, 0, false, nil
		}
	}
	if k < n-1 && !next(buf[:n-1-k], tail[:], off) {
		return n, 0, 0, false, nil
	}
	return n, lo, hi, true, nil
}

// searchCount returns how many of the ascending vals lie below from, and how
// many at or below to.
func searchCount(vals []int64, from, to int64) (below, atMost int) {
	count := func(past func(int64) bool) int {
		switch {
		case !past(vals[len(vals)-1]):
			return len(vals)
		case past(vals[0]):
			return 0
		}
		return sort.Search(len(vals), func(i int) bool { return past(vals[i]) })
	}
	return count(func(t int64) bool { return t >= from }), count(func(t int64) bool { return t > to })
}

// deltaStream parses a stream produced by EncodeDeltaBPI64 up to its packed
// deltas: n values, the first of them, and the deltas' width and bytes.
func deltaStream(src []byte) (n int, first int64, w int, packed []byte, err error) {
	if len(src) == 0 || Method(src[0]) != MethodDeltaBP {
		return 0, 0, 0, nil, ErrMethod
	}
	src = src[1:]
	count, used, err := Uvarint(src)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	src = src[used:]
	if count == 0 {
		return 0, 0, 0, nil, nil
	}
	zz, used, err := Uvarint(src)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	deltas, w, packed, err := bitPackHeader(src[used:])
	if err != nil {
		return 0, 0, 0, nil, err
	}
	if uint64(deltas)+1 != count {
		return 0, 0, 0, nil, fmt.Errorf("%w: count %d but %d deltas", ErrCorrupt, count, deltas)
	}
	return deltas + 1, UnZigZag(zz), w, packed, nil
}

// unpackDeltas is unpackWords for zigzagged deltas: it writes the running
// sum from prev, the value before dst[0], and returns the OR of the deltas,
// negative when one is.
func unpackDeltas(dst []int64, src []byte, w, off uint, prev int64) (neg int64) {
	if len(dst) == 0 {
		return 0
	}
	if off == 0 && 64%w == 0 {
		return unpackDeltasWhole(dst, src, w, prev)
	}
	mask := ^uint64(0) >> (64 - w)
	acc := binary.LittleEndian.Uint64(src) >> off
	nacc, p := 64-off, 8
	for i := range dst {
		var v uint64
		if nacc >= w {
			v = acc & mask
			acc >>= w & 63
			nacc -= w
		} else {
			word := binary.LittleEndian.Uint64(src[p:])
			p += 8
			v = (acc | word<<(nacc&63)) & mask
			acc = word >> ((w - nacc) & 63)
			nacc += 64 - w
		}
		d := int64(v>>1) ^ -int64(v&1)
		prev += d
		neg |= d
		dst[i] = prev
	}
	return neg
}

// unpackDeltasWhole is unpackWordsWhole for zigzagged deltas.
func unpackDeltasWhole(dst []int64, src []byte, w uint, prev int64) (neg int64) {
	mask, per := ^uint64(0)>>(64-w), int(64/w)
	for i, p := 0, 0; i < len(dst); i, p = i+per, p+8 {
		word := binary.LittleEndian.Uint64(src[p:])
		chunk := dst[i:min(i+per, len(dst))]
		for j := range chunk {
			v := word & mask
			word >>= w & 63
			d := int64(v>>1) ^ -int64(v&1)
			prev += d
			neg |= d
			chunk[j] = prev
		}
	}
	return neg
}
