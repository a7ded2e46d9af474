// Package lz4 implements the LZ4 block format from scratch on the standard
// library. Scuba applies lz4 as the byte-level stage of its column
// compression pipeline (§2.1, reference [7]); this package provides a
// compatible compressor and decompressor for that role.
//
// Block format (https://github.com/lz4/lz4/blob/dev/doc/lz4_Block_format.md):
// a sequence of [token][literal length+][literals][offset][match length+]
// records, where each token packs a 4-bit literal length and a 4-bit match
// length, lengths >= 15 continue in 255-saturated extension bytes, offsets
// are 2-byte little-endian, and matches are at least 4 bytes. The final
// sequence carries literals only.
package lz4

import (
	"encoding/binary"
	"errors"
	"fmt"
)

const (
	minMatch      = 4
	hashLog       = 14
	hashTableSize = 1 << hashLog
	// The last 5 bytes of a block are always literals, and the last match
	// must start at least 12 bytes before the end (format requirements).
	lastLiterals  = 5
	mfLimit       = 12
	maxOffset     = 65535
	tokenMaxLen   = 15
	skipTrigger   = 6 // compression-speed heuristic: accelerate after misses
	maxBlockInput = 0x7E000000
)

// Errors returned by this package.
var (
	ErrTooLarge    = errors.New("lz4: input exceeds maximum block size")
	ErrCorrupt     = errors.New("lz4: corrupt block")
	ErrDstTooSmall = errors.New("lz4: destination too small")
)

// CompressBound returns the maximum compressed size for n input bytes.
func CompressBound(n int) int { return n + n/255 + 16 }

func hash4(v uint32) uint32 { return (v * 2654435761) >> (32 - hashLog) }

func load32(b []byte, i int) uint32 { return binary.LittleEndian.Uint32(b[i:]) }

// Compress appends the LZ4 block encoding of src to dst and returns the
// extended slice. Incompressible input grows by at most CompressBound.
func Compress(dst, src []byte) ([]byte, error) {
	if len(src) > maxBlockInput {
		return nil, ErrTooLarge
	}
	if len(src) == 0 {
		return dst, nil
	}
	if len(src) < mfLimit {
		return appendLiteralRun(dst, src), nil
	}
	var table [hashTableSize]int32 // position+1; 0 means empty
	anchor := 0
	pos := 0
	limit := len(src) - mfLimit
	searchMisses := 0

	for pos <= limit {
		h := hash4(load32(src, pos))
		candidate := int(table[h]) - 1
		table[h] = int32(pos + 1)
		if candidate >= 0 && pos-candidate <= maxOffset && load32(src, candidate) == load32(src, pos) {
			// Extend the match backward over pending literals.
			for pos > anchor && candidate > 0 && src[pos-1] == src[candidate-1] {
				pos--
				candidate--
			}
			matchLen := minMatch
			maxLen := len(src) - lastLiterals - pos
			for matchLen < maxLen && src[pos+matchLen] == src[candidate+matchLen] {
				matchLen++
			}
			dst = appendSequence(dst, src[anchor:pos], pos-candidate, matchLen)
			pos += matchLen
			anchor = pos
			searchMisses = 0
			// Seed the table inside the match so long repeats chain.
			if pos-2 > 0 && pos-2 <= limit {
				table[hash4(load32(src, pos-2))] = int32(pos - 1)
			}
			continue
		}
		searchMisses++
		pos += 1 + searchMisses>>skipTrigger
	}
	return appendLiteralRun(dst, src[anchor:]), nil
}

// appendSequence writes one [token][literals][offset][matchlen ext] record.
func appendSequence(dst, literals []byte, offset, matchLen int) []byte {
	litLen := len(literals)
	ml := matchLen - minMatch
	token := byte(0)
	if litLen >= tokenMaxLen {
		token = tokenMaxLen << 4
	} else {
		token = byte(litLen) << 4
	}
	if ml >= tokenMaxLen {
		token |= tokenMaxLen
	} else {
		token |= byte(ml)
	}
	dst = append(dst, token)
	if litLen >= tokenMaxLen {
		dst = appendLenExt(dst, litLen-tokenMaxLen)
	}
	dst = append(dst, literals...)
	dst = append(dst, byte(offset), byte(offset>>8))
	if ml >= tokenMaxLen {
		dst = appendLenExt(dst, ml-tokenMaxLen)
	}
	return dst
}

// appendLiteralRun writes the final literals-only sequence.
func appendLiteralRun(dst, literals []byte) []byte {
	litLen := len(literals)
	if litLen >= tokenMaxLen {
		dst = append(dst, tokenMaxLen<<4)
		dst = appendLenExt(dst, litLen-tokenMaxLen)
	} else {
		dst = append(dst, byte(litLen)<<4)
	}
	return append(dst, literals...)
}

func appendLenExt(dst []byte, rest int) []byte {
	for rest >= 255 {
		dst = append(dst, 255)
		rest -= 255
	}
	return append(dst, byte(rest))
}

// MaxExpansion bounds how much an LZ4 block can grow: the densest sequence is
// a match whose length runs on in 0xFF extension bytes, 255 output bytes for
// each byte of input.
const MaxExpansion = 255

// Decompress decodes an LZ4 block into a buffer of exactly decompressedSize
// bytes: buf when it is large enough (a caller's reusable scratch; nil is
// fine), a fresh one otherwise. The size comes from the enclosing container
// (the RBC footer stores the uncompressed length), which a checksum vouches
// was written, not that it is sane: a size no block of len(src) bytes can
// decode to is ErrCorrupt before anything is allocated for it.
func Decompress(buf, src []byte, decompressedSize int) ([]byte, error) {
	if decompressedSize < 0 || decompressedSize/MaxExpansion > len(src) {
		return nil, fmt.Errorf("%w: %d bytes cannot decode to %d", ErrCorrupt, len(src), decompressedSize)
	}
	if cap(buf) < decompressedSize {
		buf = make([]byte, decompressedSize)
	}
	dst := buf[:decompressedSize]
	n, err := DecompressInto(dst, src)
	if err != nil {
		return nil, err
	}
	if n != decompressedSize {
		return nil, fmt.Errorf("%w: decoded %d bytes, expected %d", ErrCorrupt, n, decompressedSize)
	}
	return dst, nil
}

// DecompressInto decodes an LZ4 block into dst and returns the number of
// bytes written. Most sequences of a column's data section are short — a few
// literals, a match of a few bytes — so both copies have a path that moves
// 16 bytes with two 64-bit loads and stores whenever that much room is left
// on both sides, whatever the length: what lands past the sequence's end is
// overwritten by the next one (output is written front to back and must fill
// dst exactly), and a memmove call costs more than the bytes it would move.
func DecompressInto(dst, src []byte) (int, error) {
	di, si := 0, 0
	if len(src) == 0 {
		return 0, nil
	}
	for {
		if si >= len(src) {
			return 0, fmt.Errorf("%w: truncated token", ErrCorrupt)
		}
		token := src[si]
		si++
		litLen := int(token >> 4)
		if litLen == tokenMaxLen {
			n, used, err := readLenExt(src[si:])
			if err != nil {
				return 0, err
			}
			litLen += n
			si += used
		}
		if litLen <= 16 && si+16 <= len(src) && di+16 <= len(dst) {
			copy16(dst[di:], src[si:])
		} else {
			if si+litLen > len(src) {
				return 0, fmt.Errorf("%w: literal run past input", ErrCorrupt)
			}
			if di+litLen > len(dst) {
				return 0, ErrDstTooSmall
			}
			copy(dst[di:], src[si:si+litLen])
		}
		si += litLen
		di += litLen
		if si == len(src) {
			return di, nil // final literals-only sequence
		}
		if si+2 > len(src) {
			return 0, fmt.Errorf("%w: truncated offset", ErrCorrupt)
		}
		offset := int(src[si]) | int(src[si+1])<<8
		si += 2
		if offset == 0 || offset > di {
			return 0, fmt.Errorf("%w: offset %d at output position %d", ErrCorrupt, offset, di)
		}
		matchLen := int(token & 0x0f)
		if matchLen == tokenMaxLen {
			n, used, err := readLenExt(src[si:])
			if err != nil {
				return 0, err
			}
			matchLen += n
			si += used
		}
		matchLen += minMatch
		end := di + matchLen
		if end > len(dst) {
			return 0, ErrDstTooSmall
		}
		ref := di - offset
		switch {
		case offset >= 8 && matchLen <= 16 && di+16 <= len(dst):
			// The second 8 bytes may be ones the first store just wrote
			// (offset < 16): they are read after it, so they are right.
			copy16(dst[di:], dst[ref:])
			di = end
		case offset < 8 && matchLen <= 16:
			// A match overlapping its own output repeats the last offset
			// bytes; byte by byte is the definition.
			for ; di < end; di++ {
				dst[di] = dst[di-offset]
			}
		default:
			// Copy what is already written, which doubles with every pass
			// when the match overlaps its own output.
			for di < end {
				di += copy(dst[di:end], dst[ref:di])
			}
		}
	}
}

// copy16 moves 16 bytes from src to dst, 8 at a time in order.
func copy16(dst, src []byte) {
	binary.LittleEndian.PutUint64(dst, binary.LittleEndian.Uint64(src))
	binary.LittleEndian.PutUint64(dst[8:], binary.LittleEndian.Uint64(src[8:]))
}

func readLenExt(src []byte) (n, used int, err error) {
	for {
		if used >= len(src) {
			return 0, 0, fmt.Errorf("%w: truncated length extension", ErrCorrupt)
		}
		b := src[used]
		used++
		n += int(b)
		if b != 255 {
			return n, used, nil
		}
	}
}
