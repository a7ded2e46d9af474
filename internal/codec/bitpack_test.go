package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestBitPackRoundTrip(t *testing.T) {
	cases := [][]uint64{
		nil,
		{0},
		{0, 0, 0},
		{1},
		{1, 2, 3, 4, 5, 6, 7},
		{255, 256, 65535, 65536},
		{math.MaxUint64},
		{math.MaxUint64, 0, 1},
	}
	for _, vals := range cases {
		enc := EncodeBitPackU64(nil, vals)
		got, err := decodeBitPack[uint64](enc, 64)
		if err != nil {
			t.Fatalf("decode %v: %v", vals, err)
		}
		if len(got) == 0 && len(vals) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, vals) {
			t.Errorf("round trip %v -> %v", vals, got)
		}
	}
}

func TestBitPackWidth(t *testing.T) {
	// 1000 values < 8 should pack at 3 bits each: ~375 bytes + header.
	vals := make([]uint64, 1000)
	for i := range vals {
		vals[i] = uint64(i % 8)
	}
	enc := EncodeBitPackU64(nil, vals)
	if len(enc) > 400 {
		t.Errorf("3-bit packing produced %d bytes for 1000 values", len(enc))
	}
}

func TestBitPackZeroWidth(t *testing.T) {
	vals := make([]uint64, 100000)
	enc := EncodeBitPackU64(nil, vals)
	if len(enc) > 8 {
		t.Errorf("all-zero column should be ~empty, got %d bytes", len(enc))
	}
	got, err := decodeBitPack[uint64](enc, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vals) {
		t.Fatalf("got %d values, want %d", len(got), len(vals))
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("value %d = %d, want 0", i, v)
		}
	}
}

func TestBitPackProperty(t *testing.T) {
	f := func(vals []uint64) bool {
		enc := EncodeBitPackU64(nil, vals)
		got, err := decodeBitPack[uint64](enc, 64)
		if err != nil {
			return false
		}
		if len(vals) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitPackCorruption(t *testing.T) {
	enc := EncodeBitPackU64(nil, []uint64{1, 2, 3, 4, 5})
	if _, err := decodeBitPack[uint64](enc[:len(enc)-2], 64); err == nil {
		t.Error("truncated packed bytes decoded without error")
	}
	bad := append([]byte(nil), enc...)
	bad[0] = byte(MethodRaw)
	if _, err := decodeBitPack[uint64](bad, 64); err == nil {
		t.Error("wrong method byte decoded without error")
	}
	// Absurd bit width.
	bad2 := append([]byte(nil), enc...)
	// byte layout: [method][count varint(=5, 1 byte)][width]
	bad2[2] = 65
	if _, err := decodeBitPack[uint64](bad2, 64); err == nil {
		t.Error("bit width 65 decoded without error")
	}
}

func TestDeltaBPRoundTrip(t *testing.T) {
	cases := [][]int64{
		nil,
		{42},
		{-42},
		{1, 2, 3},
		{1000, 999, 998},
		{0, math.MaxInt64, math.MinInt64, 17},
	}
	for _, vals := range cases {
		enc := EncodeDeltaBPI64(nil, vals)
		got, err := DecodeDeltaBPI64(nil, enc)
		if err != nil {
			t.Fatalf("decode %v: %v", vals, err)
		}
		if len(got) == 0 && len(vals) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, vals) {
			t.Errorf("round trip %v -> %v", vals, got)
		}
	}
}

func TestDeltaBPCompressesTimestamps(t *testing.T) {
	vals := make([]int64, 65536)
	ts := int64(1700000000)
	for i := range vals {
		ts += int64(i % 2)
		vals[i] = ts
	}
	enc := EncodeDeltaBPI64(nil, vals)
	// Deltas are 0 or +1, zigzag {0,2}: 2-bit packing = 16 KiB versus
	// 512 KiB raw, a 32x reduction before the lz4 stage.
	if len(enc) > 17*1024 {
		t.Errorf("timestamp column packed to %d bytes, want <=17KiB", len(enc))
	}
}

func TestDeltaBPProperty(t *testing.T) {
	f := func(vals []int64) bool {
		// Skip inputs whose deltas overflow int64; Scuba timestamps never do,
		// and overflow wraps identically on decode anyway, but DeepEqual on
		// the reconstructed prefix is the contract we keep.
		enc := EncodeDeltaBPI64(nil, vals)
		got, err := DecodeDeltaBPI64(nil, enc)
		if err != nil {
			return false
		}
		if len(vals) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The per-value kernels the word-at-a-time ones replaced, kept as the
// reference they are checked against: the packer stores each value with at
// most two 64-bit writes into a padded buffer, the unpacker loads each with at
// most two 64-bit reads, and the delta decode sums the unpacked values in a
// second pass.

func refEncodeBitPackU64(dst []byte, values []uint64) []byte {
	w := 0
	for _, v := range values {
		w = max(w, bits.Len64(v))
	}
	dst = append(dst, byte(MethodBitPack))
	dst = binary.AppendUvarint(dst, uint64(len(values)))
	dst = append(dst, byte(w))
	if w == 0 {
		return dst
	}
	nbytes := (len(values)*w + 7) / 8
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

func refEncodeDeltaBPI64(dst []byte, values []int64) []byte {
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
	return refEncodeBitPackU64(dst, deltas)
}

func refUnpackBits(dst []uint64, packed []byte, w int) {
	mask := ^uint64(0) >> uint(64-w)
	padded := append(append([]byte(nil), packed...), make([]byte, 16)...)
	for i, bitpos := 0, 0; i < len(dst); i, bitpos = i+1, bitpos+w {
		p, off := bitpos>>3, uint(bitpos&7)
		v := binary.LittleEndian.Uint64(padded[p:]) >> off
		if off+uint(w) > 64 {
			v |= binary.LittleEndian.Uint64(padded[p+8:]) << (64 - off)
		}
		dst[i] = v & mask
	}
}

func refPrefixSum(first int64, deltas []uint64) []int64 {
	out := []int64{first}
	for _, d := range deltas {
		out = append(out, out[len(out)-1]+UnZigZag(d))
	}
	return out
}

// fuzzValues makes n values of exactly w bits (the first has its top bit)
// from data, and, from them as zigzagged deltas, a signed series; even only
// keeps every delta non-negative.
func fuzzValues(data []byte, w, n int, even bool) ([]uint64, []int64) {
	mask := ^uint64(0) >> (64 - w) & -uint64(min(w, 1))
	vals := make([]uint64, n)
	data = append([]byte{0}, data...)
	var x uint64 = 0x9e3779b97f4a7c15
	for i := range vals {
		x ^= uint64(data[i%len(data)]) + uint64(i)
		x = x*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
		x ^= x >> 29
		vals[i] = x & mask
		if even {
			vals[i] &^= 1
		}
	}
	if n > 0 && w > 0 {
		vals[0] |= 1 << (w - 1)
		if even && w == 1 {
			vals[0] = 0
		}
	}
	series := refPrefixSum(int64(x), vals)
	return vals, series
}

// FuzzBitPackKernels checks the word-at-a-time kernels against the per-value
// reference at every width 0-64 and at ragged lengths: the same bytes out of
// both encoders, the reference's values out of the decoders, the delta
// decode's ascending flag against the values, and ErrCorrupt for a stream cut
// short or wider than its type.
func FuzzBitPackKernels(f *testing.F) {
	for w := 0; w <= 64; w++ {
		f.Add(uint8(w), uint16(w*7+3), false, []byte{byte(w), 1, 2, 3})
		f.Add(uint8(w), uint16(130), true, []byte{7})
	}
	f.Fuzz(func(t *testing.T, w8 uint8, n16 uint16, even bool, data []byte) {
		w, n := int(w8)%65, int(n16)%600
		vals, series := fuzzValues(data, w, n, even)

		enc := EncodeBitPackU64([]byte{0xee}, vals)[1:]
		ref := refEncodeBitPackU64(nil, vals)
		if !bytes.Equal(enc, ref) {
			t.Fatalf("w=%d n=%d: packed % x, reference % x", w, n, enc, ref)
		}
		got, err := decodeBitPack[uint64](ref, 64)
		if err != nil {
			t.Fatalf("w=%d n=%d: %v", w, n, err)
		}
		want := make([]uint64, n)
		_, hw, packed, err := bitPackHeader(ref)
		if err != nil {
			t.Fatal(err)
		}
		if hw > 0 {
			refUnpackBits(want, packed, hw)
		}
		if !slices.Equal(want, vals) || len(got) != n {
			t.Fatalf("w=%d n=%d: %d values decoded, or the reference unpacked something else", w, n, len(got))
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("w=%d n=%d: value %d decoded %d, want %d", w, n, i, got[i], vals[i])
			}
		}
		ids, err := DecodeBitPackU32(ref)
		if hw <= 32 {
			if err != nil || len(ids) != n {
				t.Fatalf("w=%d n=%d: %d ids, %v", w, n, len(ids), err)
			}
			for i, id := range ids {
				if uint64(id) != vals[i] {
					t.Fatalf("w=%d: id %d = %d, want %d", w, i, id, vals[i])
				}
			}
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%d-bit ids decoded as uint32: %v", hw, err)
		}
		if len(packed) > 0 {
			if _, err := decodeBitPack[uint64](ref[:len(ref)-1], 64); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("w=%d n=%d: a stream one byte short: %v", w, n, err)
			}
		}
		wide := slices.Clone(ref)
		wide[len(binary.AppendUvarint(nil, uint64(n)))+1] = byte(65 + w)
		if _, err := decodeBitPack[uint64](wide, 64); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("width %d decoded: %v", 65+w, err)
		}

		denc := EncodeDeltaBPI64([]byte{0xee}, series)[1:]
		dref := refEncodeDeltaBPI64(nil, series)
		if !bytes.Equal(denc, dref) {
			t.Fatalf("w=%d n=%d: delta-packed % x, reference % x", w, n, denc, dref)
		}
		dst := make([]int64, 3, 700) // reused: the decode writes from index 0
		dec, err := DecodeDeltaBPI64(dst, dref)
		if err != nil || len(dec) != len(series) {
			t.Fatalf("w=%d n=%d: decoded %d values (%v), want %d", w, n, len(dec), err, len(series))
		}
		for i := range series {
			if dec[i] != series[i] {
				t.Fatalf("w=%d n=%d: value %d decoded %d, want %d", w, n, i, dec[i], series[i])
			}
		}
		// The search answers for any window as a pass over the values does;
		// without a step wider than MaxInt64, which reads as a fall, it says
		// exactly whether they ascend.
		wrapped := false
		for i := 1; i < len(series); i++ {
			wrapped = wrapped || (series[i] >= series[i-1]) != (series[i]-series[i-1] >= 0)
		}
		sorted := slices.IsSorted(series)
		for _, win := range fuzzWindows(series, data) {
			sn, lo, hi, ascending, err := SearchDeltaBPI64(dref, win[0], win[1])
			if err != nil || sn != len(series) || ascending != sorted && !(sorted && wrapped) {
				t.Fatalf("w=%d n=%d: search found %d values, ascending %v (%v); sorted %v", w, n, sn, ascending, err, sorted)
			}
			var below, atMost int
			for _, v := range series {
				below += int(b2u(v < win[0]))
				atMost += int(b2u(v <= win[1]))
			}
			if ascending && (lo != below || hi != atMost) {
				t.Fatalf("w=%d n=%d: [%d, %d] found rows [%d, %d), want [%d, %d)", w, n, win[0], win[1], lo, hi, below, atMost)
			}
		}
		if _, err := DecodeDeltaBPI64(nil, dref[:len(dref)-1]); err == nil {
			t.Fatalf("w=%d n=%d: a delta stream one byte short decoded", w, n)
		}
		if _, _, _, _, err := SearchDeltaBPI64(dref[:len(dref)-1], 0, 0); err == nil {
			t.Fatalf("w=%d n=%d: a delta stream one byte short searched", w, n)
		}
	})
}

func b2u(b bool) uint {
	if b {
		return 1
	}
	return 0
}

// fuzzWindows picks time windows over series: at its first and last value,
// inside it at values it holds and between them, wholly outside it, empty,
// and at the extremes of int64.
func fuzzWindows(series []int64, data []byte) [][2]int64 {
	ws := [][2]int64{{math.MinInt64, math.MaxInt64}, {math.MaxInt64, math.MinInt64}, {0, 0}}
	if len(series) == 0 {
		return ws
	}
	f, l := series[0], series[len(series)-1]
	ws = append(ws, [2]int64{f, f}, [2]int64{l, l}, [2]int64{math.MinInt64, f}, [2]int64{l, math.MaxInt64})
	for i, b := range data {
		a, c := series[int(b)%len(series)], series[(int(b)*7+i)%len(series)]
		ws = append(ws, [2]int64{min(a, c), max(a, c)}, [2]int64{a, a}, [2]int64{a + 1, c - 1})
		if i == 4 {
			break
		}
	}
	return ws
}
