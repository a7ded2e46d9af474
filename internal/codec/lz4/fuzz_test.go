package lz4

import (
	"bytes"
	"testing"
)

// FuzzRoundTrip checks compress->decompress identity on arbitrary inputs.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("hello hello hello hello"))
	f.Add(bytes.Repeat([]byte{0}, 100))
	f.Add([]byte("INFO service=web status=200\nINFO service=web status=200\n"))
	f.Fuzz(func(t *testing.T, src []byte) {
		comp, err := Compress(nil, src)
		if err != nil {
			t.Skip()
		}
		got, err := Decompress(nil, comp, len(src))
		if err != nil {
			t.Fatalf("decompress own output: %v", err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("round trip mismatch: %d in, %d out", len(src), len(got))
		}
	})
}

// FuzzDecompress checks the decoder never panics or overruns on arbitrary
// (usually invalid) compressed input.
func FuzzDecompress(f *testing.F) {
	valid, _ := Compress(nil, []byte("some valid payload some valid payload"))
	f.Add(valid, 38)
	f.Add([]byte{0xf0, 0x01, 0x02}, 100)
	f.Add([]byte(nil), 0)
	f.Fuzz(func(t *testing.T, comp []byte, size int) {
		if size < 0 || size > 1<<20 {
			t.Skip()
		}
		Decompress(nil, comp, size) //nolint:errcheck // only checking for panics
	})
}
