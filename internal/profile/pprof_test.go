package profile

import (
	"bytes"
	"compress/gzip"
	"runtime/pprof"
	"testing"
	"time"
)

// ---- minimal protobuf writer for synthetic profiles ----

type pbuf struct{ b []byte }

func (p *pbuf) varint(v uint64) {
	for v >= 0x80 {
		p.b = append(p.b, byte(v)|0x80)
		v >>= 7
	}
	p.b = append(p.b, byte(v))
}

func (p *pbuf) tag(num, wt int) { p.varint(uint64(num<<3 | wt)) }

func (p *pbuf) uint(num int, v uint64) {
	p.tag(num, 0)
	p.varint(v)
}

func (p *pbuf) bytes(num int, data []byte) {
	p.tag(num, 2)
	p.varint(uint64(len(data)))
	p.b = append(p.b, data...)
}

func (p *pbuf) msg(num int, fn func(*pbuf)) {
	var inner pbuf
	fn(&inner)
	p.bytes(num, inner.b)
}

func (p *pbuf) packed(num int, vals ...uint64) {
	var inner pbuf
	for _, v := range vals {
		inner.varint(v)
	}
	p.bytes(num, inner.b)
}

// syntheticProfile builds a two-sample CPU profile:
//
//	main -> work -> hot   (3 samples, 30ms)
//	main -> work          (1 sample, 10ms)
//
// with location 3 carrying an inlined frame (hot inlined into work) to
// exercise multi-line locations. strings: 0:"", 1:cpu, 2:nanoseconds,
// 3:main, 4:work, 5:hot, 6:samples, 7:count.
func syntheticProfile() []byte {
	var p pbuf
	p.msg(1, func(m *pbuf) { m.uint(1, 6); m.uint(2, 7) }) // samples/count
	p.msg(1, func(m *pbuf) { m.uint(1, 1); m.uint(2, 2) }) // cpu/nanoseconds
	// sample 1: stack hot,work,main (leaf first), values [3, 30e6]
	p.msg(2, func(m *pbuf) {
		m.packed(1, 3, 2, 1)
		m.packed(2, 3, 30_000_000)
	})
	// sample 2: stack work,main — unpacked repeated encoding on purpose
	p.msg(2, func(m *pbuf) {
		m.uint(1, 2)
		m.uint(1, 1)
		m.uint(2, 1)
		m.uint(2, 10_000_000)
	})
	p.msg(4, func(m *pbuf) { // location 1 = main
		m.uint(1, 1)
		m.msg(4, func(l *pbuf) { l.uint(1, 1); l.uint(2, 12) })
	})
	p.msg(4, func(m *pbuf) { // location 2 = work
		m.uint(1, 2)
		m.msg(4, func(l *pbuf) { l.uint(1, 2); l.uint(2, 34) })
	})
	p.msg(4, func(m *pbuf) { // location 3 = hot inlined into work
		m.uint(1, 3)
		m.msg(4, func(l *pbuf) { l.uint(1, 3); l.uint(2, 56) })
		m.msg(4, func(l *pbuf) { l.uint(1, 2); l.uint(2, 34) })
	})
	p.msg(5, func(m *pbuf) { m.uint(1, 1); m.uint(2, 3) })
	p.msg(5, func(m *pbuf) { m.uint(1, 2); m.uint(2, 4) })
	p.msg(5, func(m *pbuf) { m.uint(1, 3); m.uint(2, 5) })
	for _, s := range []string{"", "cpu", "nanoseconds", "main", "work", "hot", "samples", "count"} {
		p.bytes(6, []byte(s))
	}
	p.uint(10, 40_000_000) // duration_nanos
	p.msg(11, func(m *pbuf) { m.uint(1, 1); m.uint(2, 2) })
	p.uint(12, 10_000_000) // period
	return p.b
}

func TestDecodeSynthetic(t *testing.T) {
	prof, err := Decode(syntheticProfile())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got := len(prof.SampleTypes); got != 2 {
		t.Fatalf("SampleTypes = %d, want 2", got)
	}
	if prof.SampleTypes[1] != (ValueType{Type: "cpu", Unit: "nanoseconds"}) {
		t.Fatalf("SampleTypes[1] = %+v", prof.SampleTypes[1])
	}
	if prof.DurationNanos != 40_000_000 || prof.Period != 10_000_000 {
		t.Fatalf("duration=%d period=%d", prof.DurationNanos, prof.Period)
	}
	idx := prof.ValueIndex("cpu")
	if idx != 1 {
		t.Fatalf("ValueIndex(cpu) = %d", idx)
	}
	vals, total := prof.Fold(idx)
	if total != 40_000_000 {
		t.Fatalf("total = %d", total)
	}
	// hot is the inlined leaf of sample 1: flat 30ms. work: flat only from
	// sample 2 (10ms), cum from both (40ms). main: no flat, cum 40ms.
	want := map[string]FuncValue{
		"hot":  {Flat: 30_000_000, Cum: 30_000_000},
		"work": {Flat: 10_000_000, Cum: 40_000_000},
		"main": {Flat: 0, Cum: 40_000_000},
	}
	for fn, w := range want {
		if vals[fn] != w {
			t.Errorf("%s = %+v, want %+v", fn, vals[fn], w)
		}
	}
}

func TestDecodeGzipped(t *testing.T) {
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	if _, err := zw.Write(syntheticProfile()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	prof, err := Decode(zbuf.Bytes())
	if err != nil {
		t.Fatalf("Decode(gzipped): %v", err)
	}
	if len(prof.samples) != 2 {
		t.Fatalf("%d samples, want 2", len(prof.samples))
	}
}

func TestDecodeTruncated(t *testing.T) {
	raw := syntheticProfile()
	// Every strict prefix must error or decode — never panic.
	for i := 0; i < len(raw); i++ {
		Decode(raw[:i]) //nolint:errcheck // looking for panics only
	}
	if _, err := Decode([]byte{0xff, 0xff, 0xff}); err == nil {
		t.Fatal("garbage decoded without error")
	}
}

// TestDecodeRealProfiles round-trips the decoder against what runtime/pprof
// actually writes: a live CPU window and the heap profile.
func TestDecodeRealProfiles(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatalf("StartCPUProfile: %v", err)
	}
	// Burn a little CPU so the profile is non-degenerate when the machine
	// is fast; zero samples is still a valid decode.
	deadline := time.Now().Add(50 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x += len(make([]byte, 64))
	}
	_ = x
	pprof.StopCPUProfile()
	prof, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatalf("decode real CPU profile: %v", err)
	}
	if prof.ValueIndex("cpu") < 0 {
		t.Fatalf("real CPU profile has no cpu column: %+v", prof.SampleTypes)
	}

	var hb bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&hb, 0); err != nil {
		t.Fatalf("heap WriteTo: %v", err)
	}
	hp, err := Decode(hb.Bytes())
	if err != nil {
		t.Fatalf("decode real heap profile: %v", err)
	}
	if hp.ValueIndex("alloc_space") < 0 || hp.ValueIndex("inuse_space") < 0 {
		t.Fatalf("heap profile columns = %+v", hp.SampleTypes)
	}
	if len(hp.samples) == 0 {
		t.Fatal("heap profile has no samples in a running test binary")
	}
	vals, total := hp.Fold(hp.ValueIndex("alloc_space"))
	if total <= 0 || len(vals) == 0 {
		t.Fatalf("alloc_space fold: total=%d funcs=%d", total, len(vals))
	}
}

func FuzzProfileDecode(f *testing.F) {
	f.Add(syntheticProfile())
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	zw.Write(syntheticProfile()) //nolint:errcheck
	zw.Close()                   //nolint:errcheck
	f.Add(zbuf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x1f, 0x8b})
	f.Fuzz(func(t *testing.T, data []byte) {
		prof, err := Decode(data)
		if err != nil || prof == nil {
			return
		}
		for i := range prof.SampleTypes {
			prof.Fold(i)
		}
		prof.Fold(prof.ValueIndex("cpu"))
	})
}
