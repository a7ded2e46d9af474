package query

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"scuba/internal/rowblock"
)

var updateGolden = flag.Bool("update", false, "rewrite the result frame golden files under testdata")

// goldenResults is the canonical content of the result frame fixtures, written
// out by hand so that the bytes pin the format and nothing else (not where a
// scan happens to place a histogram's window): a grouped, time-bucketed
// result with a count, a percentile and a count-distinct, and an ungrouped
// one, whose one key is nil.
func goldenResults() map[string]*Result {
	set := func(vs ...string) map[string]bool {
		m := make(map[string]bool)
		for _, v := range vs {
			m[v] = true
		}
		return m
	}
	inf := math.Inf(1)
	group := func(bucket, service string, count int64, sum, lo, hi float64, h Histogram, hosts ...string) Group {
		return Group{Key: []string{bucket, service}, Aggs: []AggState{
			{Count: count},
			{Count: count, Sum: sum, Min: lo, Max: hi, Hist: &h},
			{Count: count, Min: inf, Max: -inf, Distinct: set(hosts...)},
		}}
	}
	return map[string]*Result{
		"result-frame-v1.golden": {
			Groups: []Group{
				group("-60", "web", 2, -3.5, -4, 0.5, Histogram{Lo: 0, Counts: []int64{2}}, "h1"),
				group("0", "ads", 5, 1240, 8, 900, Histogram{Lo: 3, Counts: []int64{0, 1, 0, 0, 3, 0, 0, 1}}, "h1", "h2", "h10"),
				group("0", "web", 300, 3e6, 1, 1e5, Histogram{Lo: 1, Counts: []int64{7, 0, 200, 90, 3}}, "", "h2"),
				group("60", "", 1, 0, 0, 0, Histogram{Lo: 9}),
				group("60", "web", 1<<40, 1<<60, 1<<20, inf, Histogram{Lo: 21, Counts: []int64{1 << 40}}, "h3"),
			},
			RowsScanned: 1<<40 + 309, BlocksScanned: 17, BlocksSkipped: 4, BlocksPruned: 2,
			LeavesTotal: 8, LeavesAnswered: 7, ShardsTotal: 64, ShardsAnswered: 60,
			Phases:    PhaseTimes{DecodeNanos: 1200300, PruneNanos: 450, ScanNanos: 98765432, MergeNanos: 32100},
			CacheHits: 40, CacheMisses: 11,
		},
		"result-frame-v1-ungrouped.golden": {
			Groups:      []Group{{Aggs: []AggState{{Count: 12}, {Count: 12, Sum: 30, Min: -1, Max: 9}}}},
			RowsScanned: 12, BlocksScanned: 1,
		},
	}
}

// TestGoldenResultFrameV1 pins the result frame: today's encoder writes the
// fixture's bytes, and the fixture's bytes decode to the result they were
// written from, nil key and empty window included.
func TestGoldenResultFrameV1(t *testing.T) {
	for name, res := range goldenResults() {
		enc, err := res.AppendFrame(nil)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", name)
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, enc, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, raw) {
			t.Fatalf("encoding drifted from %s:\n got %x\nwant %x", name, enc, raw)
		}
		got, err := DecodeResultFrame(raw)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, res) {
			t.Fatalf("%s decodes to\n%+v, want\n%+v", name, got, res)
		}
		// Appended behind other bytes, the frame is the same frame.
		if again, err := got.AppendFrame([]byte("xyz")); err != nil || !bytes.Equal(again[3:], raw) {
			t.Fatalf("%s re-encoded behind a prefix: %x, %v", name, again, err)
		}
	}
	empty, err := (&Result{BlocksSkipped: 3}).AppendFrame(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeResultFrame(empty); err != nil || len(got.Groups) != 0 || got.BlocksSkipped != 3 {
		t.Fatalf("a result of no groups: %+v, %v", got, err)
	}
}

// reseal recomputes a tampered frame's checksum, so the decoder sees the
// structure and not the CRC.
func reseal(frame []byte) []byte {
	if len(frame) < 4 {
		return frame
	}
	return rowblock.SealFrame(bytes.Clone(frame[:len(frame)-4]), 0)
}

// TestResultFrameRejects: a frame that is not a result's one encoding is an
// error that says so — never a panic, an over-read or an allocation sized by
// a count the bytes do not back — and so is a result no frame can hold.
func TestResultFrameRejects(t *testing.T) {
	valid, err := goldenResults()["result-frame-v1.golden"].AppendFrame(nil)
	if err != nil {
		t.Fatal(err)
	}
	// frame builds one from parts: counters, ngroups, nkeys, naggs, then body.
	frame := func(ngroups, nkeys, naggs uint64, body ...byte) []byte {
		f := rowblock.AppendFrameHeader(nil, resultFrameMagic, resultFrameVersion)
		f = append(f, make([]byte, 14)...)
		for _, v := range []uint64{ngroups, nkeys, naggs} {
			f = binary.AppendUvarint(f, v)
		}
		return rowblock.SealFrame(append(f, body...), 0)
	}
	flip := func(at int) []byte {
		f := bytes.Clone(valid)
		f[at] ^= 0x40
		return f
	}
	cases := map[string][]byte{
		"empty":               nil,
		"truncated":           valid[:len(valid)/2],
		"bad magic":           flip(0),
		"bad version":         reseal(flip(4)),
		"bad checksum":        flip(len(valid) / 2),
		"trailing bytes":      reseal(append(bytes.Clone(valid), 0, 0, 0, 0, 0)),
		"groups past the end": frame(1<<40, 1, 1),
		"two keyless groups":  frame(2, 0, 0),
		"shape of no group":   frame(0, 2, 1),
		"keys past the end":   frame(3, 1<<40, 0),
		"aggs past the end":   frame(1, 0, 1<<40),
		"ID out of range":     frame(1, 1, 0, 1, 1, 'a', 1),
		"unsorted dictionary": frame(2, 1, 0, 2, 1, 1, 'b', 'a', 1, 0),
		"repeated entry":      frame(2, 1, 0, 2, 1, 1, 'a', 'a', 0, 1),
		"unused entry":        frame(1, 1, 0, 2, 1, 1, 'a', 'b', 0),
		"unknown shape bit":   frame(1, 0, 1, 4, 0),
		"floats cut short":    frame(1, 0, 1, 0, 2, 1, 2, 3),
		"window past the end": frame(1, 0, 1, append([]byte{shapeHist, 2}, append(make([]byte, 24), 60, 6, 1, 1, 1, 1, 1, 1)...)...),
		"counts cut short":    frame(1, 0, 1, append([]byte{shapeHist, 2}, append(make([]byte, 24), 3, 4, 1)...)...),
		"count past int64":    frame(1, 0, 1, append([]byte{shapeHist, 2}, append(make([]byte, 24), 3, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1)...)...),
		"unsorted set":        frame(1, 0, 1, append([]byte{shapeDistinct, 2}, append(make([]byte, 24), 2, 1, 1, 'b', 'a')...)...),
	}
	for name, f := range cases {
		if res, err := DecodeResultFrame(f); !errors.Is(err, rowblock.ErrBatchCorrupt) {
			t.Errorf("%s: %+v, %v, want ErrBatchCorrupt", name, res, err)
		}
	}
	// The hand-built frames are the format: their well-formed twins decode.
	for name, f := range map[string][]byte{
		"one key":       frame(2, 1, 0, 2, 1, 1, 'a', 'b', 0, 1),
		"one histogram": frame(1, 0, 1, append([]byte{shapeHist, 2}, append(make([]byte, 24), 60, 5, 1, 1, 1, 1, 1)...)...),
		"one set":       frame(1, 0, 1, append([]byte{shapeDistinct, 2}, append(make([]byte, 24), 2, 1, 1, 'a', 'b')...)...),
	} {
		if _, err := DecodeResultFrame(f); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}

	ragged := map[string]*Result{
		"key parts":    {Groups: []Group{{Key: []string{"a"}}, {Key: []string{"b", "c"}}}},
		"accumulators": {Groups: []Group{{Key: []string{"a"}, Aggs: make([]AggState, 1)}, {Key: []string{"b"}}}},
		"histograms":   {Groups: []Group{{Key: []string{"a"}, Aggs: []AggState{{Hist: &Histogram{}}}}, {Key: []string{"b"}, Aggs: make([]AggState, 1)}}},
		"window":       {Groups: []Group{{Aggs: []AggState{{Hist: &Histogram{Lo: 60, Counts: make([]int64, 6)}}}}}},
	}
	for name, res := range ragged {
		if f, err := res.AppendFrame(nil); err == nil {
			t.Errorf("ragged %s encoded to %x", name, f)
		}
	}
}

// dashboardResult is dash_read's scan-class shape: 200 hosts x 12 services,
// {count, avg, p99}, the histograms where a scan puts them.
func dashboardResult() *Result {
	res := &Result{RowsScanned: 1 << 20, BlocksScanned: 16}
	for h := 0; h < 200; h++ {
		for s := 0; s < 12; s++ {
			hist := &Histogram{}
			for v := 1; v < 1000; v += 37 + s {
				hist.Add(float64(v * (h + 1)))
			}
			n := hist.Total()
			res.Groups = append(res.Groups, Group{
				Key: []string{fmt.Sprintf("host-%03d", h), fmt.Sprintf("service-%02d", s)},
				Aggs: []AggState{
					{Count: n},
					{Count: n, Sum: float64(n) * 12.5, Min: 0.25, Max: float64(h * s)},
					{Count: n, Sum: float64(n) * 80, Min: 1, Max: 1e6, Hist: hist},
				},
			})
		}
	}
	return res
}

// TestResultFrameDecodeAllocs: decoding allocates per column — the groups, the
// key slab, a dictionary's lengths, text and entries per key position, the
// accumulators, the histograms, their windows — and not per group.
func TestResultFrameDecodeAllocs(t *testing.T) {
	res := dashboardResult()
	frame, err := res.AppendFrame(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got *Result
	allocs := testing.AllocsPerRun(20, func() {
		if got, err = DecodeResultFrame(frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Fatalf("decoding %d groups x 3 accumulators allocates %.0f times, want at most 16", len(res.Groups), allocs)
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatal("decoded result differs")
	}
	t.Logf("%d groups: %d frame bytes, %.0f allocations to decode", len(res.Groups), len(frame), allocs)
}

// FuzzResultFrame throws arbitrary bytes, as they are and under a checksum
// that fits them, at the result frame decoder: garbage is an error, never a
// panic, and never costs more memory than a fixed multiple of its length (a
// group is 48 bytes and its key part 16, each backed by one byte of frame at
// the least); what decodes is some result's one encoding, so it re-encodes
// to the bytes it came from.
func FuzzResultFrame(f *testing.F) {
	for _, res := range goldenResults() {
		frame, err := res.AppendFrame(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
	}
	f.Add([]byte(nil))
	f.Add([]byte("SRF1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, frame := range [][]byte{data, reseal(data)} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := DecodeResultFrame(frame)
			runtime.ReadMemStats(&after)
			if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(128*len(frame)+4096); grew > bound {
				t.Fatalf("decoding %d bytes allocated %d, bound %d", len(frame), grew, bound)
			}
			if err != nil {
				if !errors.Is(err, rowblock.ErrBatchCorrupt) {
					t.Fatalf("untyped decode error: %v", err)
				}
				continue
			}
			again, err := res.AppendFrame(nil)
			if err != nil || !bytes.Equal(again, frame) {
				t.Fatalf("decoded frame re-encodes to\n%x, %v; it was\n%x", again, err, frame)
			}
			res.SortGroups() // whatever order and repeats it came in
		}
	})
}
