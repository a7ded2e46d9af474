package codec

import (
	"math"
	"testing"
	"testing/quick"
)

func TestZigZagRoundTrip(t *testing.T) {
	cases := []int64{0, 1, -1, 2, -2, 63, -64, math.MaxInt64, math.MinInt64}
	for _, v := range cases {
		if got := UnZigZag(ZigZag(v)); got != v {
			t.Errorf("UnZigZag(ZigZag(%d)) = %d", v, got)
		}
	}
}

func TestZigZagOrdering(t *testing.T) {
	// Small magnitudes must map to small codes, or varints would bloat.
	if ZigZag(0) != 0 || ZigZag(-1) != 1 || ZigZag(1) != 2 || ZigZag(-2) != 3 {
		t.Fatalf("zigzag mapping broken: %d %d %d %d", ZigZag(0), ZigZag(-1), ZigZag(1), ZigZag(-2))
	}
}

func TestZigZagProperty(t *testing.T) {
	f := func(v int64) bool { return UnZigZag(ZigZag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A delta stream cut anywhere short of its end never decodes to the whole.
func TestDecodeDeltaTruncated(t *testing.T) {
	enc := EncodeDeltaBPI64(nil, []int64{1, 1000000, -123456789})
	for cut := 0; cut < len(enc); cut++ {
		if got, err := DecodeDeltaBPI64(nil, enc[:cut]); err == nil && len(got) == 3 {
			t.Errorf("truncated stream at %d decoded fully", cut)
		}
	}
}

func TestCodeComposition(t *testing.T) {
	c := NewCode(MethodDelta, MethodLZ4)
	if c.Transform() != MethodDelta {
		t.Errorf("Transform = %v", c.Transform())
	}
	if c.Compressor() != MethodLZ4 {
		t.Errorf("Compressor = %v", c.Compressor())
	}
	if c.String() != "delta|lz4" {
		t.Errorf("String = %q", c.String())
	}
	plain := NewCode(MethodDict, MethodRaw)
	if plain.String() != "dict" {
		t.Errorf("plain String = %q", plain.String())
	}
}

func TestMethodStrings(t *testing.T) {
	for m := MethodRaw; m <= MethodLZ4; m++ {
		if s := m.String(); s == "" {
			t.Errorf("method %d has empty name", m)
		}
	}
	if Method(200).String() != "method(200)" {
		t.Errorf("unknown method name = %q", Method(200).String())
	}
}
