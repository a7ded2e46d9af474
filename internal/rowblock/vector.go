package rowblock

// The primitives a frame is built from, shared by the batch frame (batch.go),
// the row payload (rowcodec.go) and the query result frame
// (internal/query/frame.go): a frame is magic + version, a body of varints and
// typed vectors with every length ahead of the bytes it measures, and a
// CRC-32C over all of it. Reader walks such a body as untrusted input; the
// Append functions write what it reads.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"scuba/internal/codec"
)

// frameOverhead is magic + version + CRC.
const frameOverhead = 4 + 1 + 4

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrameHeader starts a frame: the magic and the version.
func AppendFrameHeader(dst []byte, magic uint32, version byte) []byte {
	return append(binary.LittleEndian.AppendUint32(dst, magic), version)
}

// SealFrame ends the frame that starts at dst[base]: the CRC-32C of
// everything since.
func SealFrame(dst []byte, base int) []byte {
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[base:], castagnoli))
}

// OpenFrame checks a whole frame's magic, version and checksum and returns a
// reader over its body, past the header. Anything else is ErrBatchCorrupt.
func OpenFrame(frame []byte, magic uint32, version byte) (Reader, error) {
	if len(frame) < frameOverhead {
		return Reader{}, fmt.Errorf("%w: %d-byte frame", ErrBatchCorrupt, len(frame))
	}
	if m := binary.LittleEndian.Uint32(frame); m != magic {
		return Reader{}, fmt.Errorf("%w: frame magic %08x", ErrBatchCorrupt, m)
	}
	if frame[4] != version {
		return Reader{}, fmt.Errorf("%w: frame version %d", ErrBatchCorrupt, frame[4])
	}
	body := frame[:len(frame)-4]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(frame[len(body):]) {
		return Reader{}, fmt.Errorf("%w: frame checksum mismatch", ErrBatchCorrupt)
	}
	return Reader{b: body, pos: 5}, nil
}

// AppendInts appends a vector of zigzag varints.
func AppendInts(dst []byte, vals []int64) []byte {
	for _, v := range vals {
		dst = binary.AppendUvarint(dst, codec.ZigZag(v))
	}
	return dst
}

// AppendFloats appends a vector of 8-byte little-endian floats.
func AppendFloats(dst []byte, vals []float64) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// AppendStrs appends a vector of strings: the lengths, then the bytes back to
// back.
func AppendStrs(dst []byte, strs []string) []byte {
	for _, s := range strs {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
	}
	for _, s := range strs {
		dst = append(dst, s...)
	}
	return dst
}

// AppendSets appends a vector of string sets: the element counts, then one
// length per element, then the element bytes back to back.
func AppendSets(dst []byte, sets [][]string) []byte {
	for _, set := range sets {
		dst = binary.AppendUvarint(dst, uint64(len(set)))
	}
	for _, set := range sets {
		for _, s := range set {
			dst = binary.AppendUvarint(dst, uint64(len(s)))
		}
	}
	for _, set := range sets {
		for _, s := range set {
			dst = append(dst, s...)
		}
	}
	return dst
}

// Reader walks an untrusted buffer; every accessor bounds-checks and reports
// ErrBatchCorrupt instead of over-reading. The vector readers size their
// allocations by an announced count only after checking the buffer still
// holds at least one byte per announced cell.
type Reader struct {
	b    []byte
	pos  int
	lens []int // Strs' and Sets' length scratch
}

// Left returns how many bytes are still unread.
func (r *Reader) Left() int { return len(r.b) - r.pos }

// Uvarint reads one unsigned varint, in the one form the writers give it: a
// value padded out with zero bytes is refused, so that what decodes has one
// encoding.
func (r *Reader) Uvarint() (uint64, error) {
	if r.pos < len(r.b) && r.b[r.pos] < 0x80 { // one byte: most counts and IDs
		r.pos++
		return uint64(r.b[r.pos-1]), nil
	}
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 || r.b[r.pos+n-1] == 0 {
		return 0, fmt.Errorf("%w: bad varint at %d", ErrBatchCorrupt, r.pos)
	}
	r.pos += n
	return v, nil
}

// Int reads one zigzag varint.
func (r *Reader) Int() (int64, error) {
	u, err := r.Uvarint()
	return codec.UnZigZag(u), err
}

// Count reads a uvarint that announces how many items follow, each at least
// one byte long: anything the buffer cannot hold is rejected before a caller
// sizes an allocation with it.
func (r *Reader) Count() (int, error) {
	v, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(r.Left()) {
		return 0, fmt.Errorf("%w: count %d overruns %d remaining bytes", ErrBatchCorrupt, v, r.Left())
	}
	return int(v), nil
}

// Bytes reads n bytes; the result aliases the buffer.
func (r *Reader) Bytes(n int) ([]byte, error) {
	if n < 0 || n > r.Left() {
		return nil, fmt.Errorf("%w: %d bytes overrun the buffer at %d", ErrBatchCorrupt, n, r.pos)
	}
	b := r.b[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

// Str reads one length-prefixed string.
func (r *Reader) Str() (string, error) {
	n, err := r.Count()
	if err != nil {
		return "", err
	}
	b, err := r.Bytes(n)
	return string(b), err
}

// Ints reads a vector of n zigzag varints into dst, resized.
func (r *Reader) Ints(dst []int64, n int) ([]int64, error) {
	if n > r.Left() {
		return nil, fmt.Errorf("%w: %d varints in %d bytes", ErrBatchCorrupt, n, r.Left())
	}
	out := resize(dst, n)
	for i := range out {
		v, err := r.Int()
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Counts fills dst with a vector of len(dst) uvarints, none of them past the
// int64 range.
func (r *Reader) Counts(dst []int64) error {
	if len(dst) > r.Left() {
		return fmt.Errorf("%w: %d varints in %d bytes", ErrBatchCorrupt, len(dst), r.Left())
	}
	for i := range dst {
		if b := r.b[r.pos]; b < 0x80 { // the buffer holds a byte per cell left
			dst[i] = int64(b)
			r.pos++
			continue
		}
		v, err := r.Uvarint()
		if err != nil {
			return err
		}
		if int64(v) < 0 {
			return fmt.Errorf("%w: count %d past the int64 range", ErrBatchCorrupt, v)
		}
		dst[i] = int64(v)
		if len(dst)-i-1 > r.Left() {
			return fmt.Errorf("%w: %d varints in %d bytes", ErrBatchCorrupt, len(dst)-i-1, r.Left())
		}
	}
	return nil
}

// Floats reads a vector of n 8-byte floats into dst, resized.
func (r *Reader) Floats(dst []float64, n int) ([]float64, error) {
	if n > r.Left()/8 {
		return nil, fmt.Errorf("%w: %d floats in %d bytes", ErrBatchCorrupt, n, r.Left())
	}
	raw, err := r.Bytes(8 * n)
	if err != nil {
		return nil, err
	}
	out := resize(dst, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out, nil
}

// lengths appends n uvarint lengths to lens and returns it with their sum,
// refusing a sum the rest of the buffer cannot hold.
func (r *Reader) lengths(lens []int, n int) ([]int, int, error) {
	if n > r.Left() {
		return nil, 0, fmt.Errorf("%w: %d lengths in %d bytes", ErrBatchCorrupt, n, r.Left())
	}
	lens, total := slices.Grow(lens, n), 0
	for range n {
		l, err := r.Count()
		if err != nil {
			return nil, 0, err
		}
		lens = append(lens, l)
		total += l
		if total > r.Left() {
			return nil, 0, fmt.Errorf("%w: lengths sum past the frame", ErrBatchCorrupt)
		}
	}
	r.lens = lens
	return lens, total, nil
}

// cut reads total bytes as one new string and slices it by lens into dst,
// resized.
func (r *Reader) cut(dst []string, lens []int, total int) ([]string, error) {
	raw, err := r.Bytes(total)
	if err != nil {
		return nil, err
	}
	text := string(raw)
	out := resize(dst, len(lens))
	off := 0
	for i, l := range lens {
		out[i] = text[off : off+l]
		off += l
	}
	return out, nil
}

// Strs reads a vector of n strings into dst, resized: substrings of one text,
// new on every call.
func (r *Reader) Strs(dst []string, n int) ([]string, error) {
	lens, total, err := r.lengths(r.lens[:0], n)
	if err != nil {
		return nil, err
	}
	return r.cut(dst, lens, total)
}

// Sets reads a vector of n string sets into dst and their elements into
// elems, both resized, and returns both. The text is new on every call; a
// set is a slice of elems, so whoever reuses elems must keep no set of it.
func (r *Reader) Sets(dst [][]string, elems []string, n int) ([][]string, []string, error) {
	lens, count, err := r.lengths(r.lens[:0], n)
	if err != nil {
		return nil, nil, err
	}
	lens, total, err := r.lengths(lens, count)
	if err != nil {
		return nil, nil, err
	}
	all, err := r.cut(elems, lens[n:], total)
	if err != nil {
		return nil, nil, err
	}
	dst = resize(dst, n)
	off := 0
	for i, c := range lens[:n] {
		// Full slice expression: appending to one row's set must not write
		// into its neighbour's elements.
		dst[i] = all[off : off+c : off+c]
		off += c
	}
	return dst, all, nil
}

// resize returns s with n cells, in its own array when that has room; the
// cells' contents are left for the caller to overwrite.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
