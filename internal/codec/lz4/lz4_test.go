package lz4

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, src []byte) []byte {
	t.Helper()
	comp, err := Compress(nil, src)
	if err != nil {
		t.Fatalf("compress: %v", err)
	}
	got, err := Decompress(nil, comp, len(src))
	if err != nil {
		t.Fatalf("decompress: %v", err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("round trip mismatch: %d in, %d out", len(src), len(got))
	}
	return comp
}

func TestEmpty(t *testing.T) {
	comp, err := Compress(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(nil, comp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d bytes", len(got))
	}
}

func TestShortInputs(t *testing.T) {
	for n := 1; n < 20; n++ {
		src := bytes.Repeat([]byte{'a'}, n)
		roundTrip(t, src)
	}
}

func TestHighlyCompressible(t *testing.T) {
	src := bytes.Repeat([]byte("abcd"), 16384) // 64 KiB
	comp := roundTrip(t, src)
	if len(comp) > len(src)/20 {
		t.Errorf("repetitive data compressed to %d of %d bytes", len(comp), len(src))
	}
}

func TestLogLikeData(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 2000; i++ {
		b.WriteString("INFO service=webtier host=frc1-")
		b.WriteByte(byte('a' + i%26))
		b.WriteString(" status=200 latency_ms=")
		b.WriteByte(byte('0' + i%10))
		b.WriteString("\n")
	}
	src := []byte(b.String())
	comp := roundTrip(t, src)
	if len(comp) > len(src)/4 {
		t.Errorf("log data compressed to %d of %d bytes, want >=4x", len(comp), len(src))
	}
}

func TestIncompressible(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := make([]byte, 100000)
	rng.Read(src)
	comp := roundTrip(t, src)
	if len(comp) > CompressBound(len(src)) {
		t.Errorf("compressed %d exceeds bound %d", len(comp), CompressBound(len(src)))
	}
}

func TestLongMatch(t *testing.T) {
	// A very long single match exercises length-extension bytes.
	src := make([]byte, 70000)
	copy(src, "0123456789abcdef")
	for i := 16; i < len(src); i++ {
		src[i] = src[i-16]
	}
	comp := roundTrip(t, src)
	if len(comp) > 1000 {
		t.Errorf("long periodic match compressed to %d bytes", len(comp))
	}
}

func TestFarMatchBeyondWindow(t *testing.T) {
	// Matches farther than 65535 bytes back must not be emitted.
	block := make([]byte, 200)
	rng := rand.New(rand.NewSource(7))
	rng.Read(block)
	var src []byte
	src = append(src, block...)
	src = append(src, bytes.Repeat([]byte{0}, 70000)...)
	src = append(src, block...)
	roundTrip(t, src)
}

func TestOverlappingMatchDecode(t *testing.T) {
	// RLE-style overlap: offset 1, long match.
	src := bytes.Repeat([]byte{'z'}, 1000)
	roundTrip(t, src)
}

func TestProperty(t *testing.T) {
	f := func(src []byte) bool {
		comp, err := Compress(nil, src)
		if err != nil {
			return false
		}
		got, err := Decompress(nil, comp, len(src))
		if err != nil {
			return false
		}
		return bytes.Equal(got, src)
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyStructured(t *testing.T) {
	// Random data rarely has matches; synthesize structured inputs too.
	rng := rand.New(rand.NewSource(42))
	words := []string{"scuba", "leaf", "aggregator", "rowblock", "shm", "restart"}
	for trial := 0; trial < 100; trial++ {
		var b bytes.Buffer
		n := rng.Intn(5000)
		for b.Len() < n {
			b.WriteString(words[rng.Intn(len(words))])
			if rng.Intn(4) == 0 {
				b.WriteByte(byte(rng.Intn(256)))
			}
		}
		roundTrip(t, b.Bytes())
	}
}

func TestDecompressCorrupt(t *testing.T) {
	src := bytes.Repeat([]byte("hello world "), 100)
	comp, err := Compress(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	// Truncations must error or produce short output, never panic.
	for cut := 0; cut < len(comp); cut++ {
		got, err := Decompress(nil, comp[:cut], len(src))
		if err == nil && bytes.Equal(got, src) && cut < len(comp) {
			t.Fatalf("truncation at %d still decoded fully", cut)
		}
	}
	// Flipping bytes must never panic.
	for i := 0; i < len(comp); i++ {
		bad := append([]byte(nil), comp...)
		bad[i] ^= 0xff
		Decompress(nil, bad, len(src)) //nolint:errcheck // only checking for panics
	}
}

func TestDecompressWrongSize(t *testing.T) {
	src := []byte("some payload that compresses")
	comp, err := Compress(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(nil, comp, len(src)-1); err == nil {
		t.Error("short destination decoded without error")
	}
	if _, err := Decompress(nil, comp, len(src)+10); err == nil {
		t.Error("long destination decoded without error")
	}
}

func TestCompressAppends(t *testing.T) {
	prefix := []byte("PREFIX")
	src := bytes.Repeat([]byte("data"), 100)
	out, err := Compress(append([]byte(nil), prefix...), src)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(out, prefix) {
		t.Error("Compress did not append to dst")
	}
	got, err := Decompress(nil, out[len(prefix):], len(src))
	if err != nil || !bytes.Equal(got, src) {
		t.Errorf("appended compress round trip failed: %v", err)
	}
}

func BenchmarkCompressLogData(b *testing.B) {
	var sb strings.Builder
	for i := 0; i < 20000; i++ {
		sb.WriteString("INFO service=webtier host=frc1 status=200 latency_ms=42\n")
	}
	src := []byte(sb.String())
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(nil, src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompressLogData(b *testing.B) {
	var sb strings.Builder
	for i := 0; i < 20000; i++ {
		sb.WriteString("INFO service=webtier host=frc1 status=200 latency_ms=42\n")
	}
	src := []byte(sb.String())
	comp, err := Compress(nil, src)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompress(nil, comp, len(src)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecompressRejectsImpossibleSize: the decompressed size arrives in a
// container field that a resealed checksum can make say anything. A size no
// block this long can decode to must be refused before the output buffer is
// allocated: the first query over a crafted column must not make a terabyte,
// or panic on a negative length.
func TestDecompressRejectsImpossibleSize(t *testing.T) {
	zeros := make([]byte, 1<<20)
	comp, err := Compress(nil, zeros)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := Decompress(nil, comp, len(zeros)); err != nil || !bytes.Equal(got, zeros) {
		t.Fatalf("the densest honest block (%d bytes for %d) no longer decodes: %v", len(comp), len(zeros), err)
	}
	for _, size := range []int{-1, MaxExpansion*(len(comp)+1) + 1, 1 << 40, int(^uint(0) >> 1)} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decompress(nil, comp, size)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("Decompress(%d bytes, size %d) = %v, want ErrCorrupt", len(comp), size, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("Decompress(%d bytes, size %d) allocated %d bytes before refusing", len(comp), size, grew)
		}
	}
}
