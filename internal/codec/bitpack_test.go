package codec

import (
	"math"
	"reflect"
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
		got, err := DecodeBitPackU64(enc)
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
	got, err := DecodeBitPackU64(enc)
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
		got, err := DecodeBitPackU64(enc)
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
	if _, err := DecodeBitPackU64(enc[:len(enc)-2]); err == nil {
		t.Error("truncated packed bytes decoded without error")
	}
	bad := append([]byte(nil), enc...)
	bad[0] = byte(MethodRaw)
	if _, err := DecodeBitPackU64(bad); err == nil {
		t.Error("wrong method byte decoded without error")
	}
	// Absurd bit width.
	bad2 := append([]byte(nil), enc...)
	// byte layout: [method][count varint(=5, 1 byte)][width]
	bad2[2] = 65
	if _, err := DecodeBitPackU64(bad2); err == nil {
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

func TestBitWidth(t *testing.T) {
	cases := map[uint64]int{0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 255: 8, 256: 9, math.MaxUint64: 64}
	for v, want := range cases {
		if got := BitWidth(v); got != want {
			t.Errorf("BitWidth(%d) = %d, want %d", v, got, want)
		}
	}
}
