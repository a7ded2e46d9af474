// Ablation benchmarks for the design choices DESIGN.md calls out: the
// paper's two-random-choice placement, the copy-one-RBC-at-a-time shutdown,
// the estimate-then-grow segment sizing (Figure 6), and the LZ4 byte stage
// on top of the value transforms.
package scuba_test

import (
	"testing"

	"scuba"
	"scuba/internal/codec"
	"scuba/internal/codec/lz4"
	"scuba/internal/rowblock"
	"scuba/internal/tailer"
)

// BenchmarkAblationPlacement compares the paper's two-random-choice policy
// against uniform random placement on a heterogeneous cluster (half the
// leaves have twice the capacity). Two-choice balances *free memory* —
// bigger leaves deliberately absorb more data — so the reported metric is
// the relative spread of free memory, (max-min)/mean: lower is better.
func BenchmarkAblationPlacement(b *testing.B) {
	for _, pol := range []struct {
		name   string
		policy tailer.Policy
	}{{"two-choice", tailer.PolicyTwoChoice}, {"random", tailer.PolicyRandom}} {
		b.Run(pol.name, func(b *testing.B) {
			var freeSpread float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e := newBenchEnv(b)
				const n = 8
				targets := make([]tailer.Target, n)
				leaves := make([]*scuba.Leaf, n)
				for j := range targets {
					budget := int64(2 << 20)
					if j%2 == 0 {
						budget = 4 << 20 // heterogeneous capacity
					}
					l, err := scuba.NewLeaf(scuba.LeafConfig{
						ID:           j,
						Shm:          scuba.ShmOptions{Dir: e.dir, Namespace: "abl"},
						MemoryBudget: budget,
					})
					if err != nil {
						b.Fatal(err)
					}
					if err := l.Start(); err != nil {
						b.Fatal(err)
					}
					leaves[j] = l
					targets[j] = benchTarget{l}
				}
				placer := scuba.NewPlacer(targets, int64(i)+1)
				placer.Policy = pol.policy
				gen := scuba.ServiceLogs(7, 1700000000)
				b.StartTimer()
				for k := 0; k < 2000; k++ {
					if _, err := placer.Place("service_logs", gen.NextBatch(100)); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				for _, l := range leaves {
					if err := l.SealAll(); err != nil {
						b.Fatal(err)
					}
				}
				minF, maxF, sumF := int64(1<<62), int64(0), int64(0)
				for _, l := range leaves {
					free := l.Stats().FreeMemory
					minF, maxF, sumF = min(minF, free), max(maxF, free), sumF+free
				}
				if sumF > 0 {
					mean := float64(sumF) / float64(len(leaves))
					freeSpread = float64(maxF-minF) / mean
				}
				b.StartTimer()
			}
			b.ReportMetric(freeSpread, "free-spread")
		})
	}
}

// BenchmarkAblationCopyGranularity compares the shutdown copy done one
// column at a time (the paper's footprint-bounding choice, §4.4) against
// building the whole block image in one heap buffer first. Throughput is
// similar; the whole-buffer variant allocates the entire image on the heap,
// which is exactly what the paper cannot afford at 10-15 GB per leaf.
func BenchmarkAblationCopyGranularity(b *testing.B) {
	block := buildBigBlock(b, 65536)
	size := len(block.AppendImage(nil))
	dst := make([]byte, size)

	b.Run("rbc-at-a-time", func(b *testing.B) {
		b.SetBytes(int64(size))
		for i := 0; i < b.N; i++ {
			n := copy(dst, block.ImagePrefix())
			for c := 0; c < block.NumColumns(); c++ {
				n += copy(dst[n:], block.Column(c).Blob())
			}
		}
	})
	b.Run("whole-image-alloc", func(b *testing.B) {
		b.SetBytes(int64(size))
		for i := 0; i < b.N; i++ {
			img := block.AppendImage(nil) // allocates the full image
			copy(dst, img)
		}
	})
}

func buildBigBlock(b *testing.B, rows int) *rowblock.RowBlock {
	b.Helper()
	gen := scuba.ServiceLogs(42, 1700000000)
	builder := rowblock.NewBuilder(1700000000)
	for _, r := range gen.NextBatch(rows) {
		if err := builder.AddRow(r); err != nil {
			b.Fatal(err)
		}
	}
	rb, err := builder.Seal()
	if err != nil {
		b.Fatal(err)
	}
	return rb
}

// BenchmarkAblationLZ4Stage quantifies what the byte-level LZ4 stage buys on
// top of the value transforms ("at least two methods per column", §2.1).
func BenchmarkAblationLZ4Stage(b *testing.B) {
	// A realistic near-monotonic time column.
	times := make([]int64, 65536)
	ts := int64(1700000000)
	for i := range times {
		ts += int64(i % 3)
		times[i] = ts
	}
	transformed := codec.EncodeDeltaBPI64(nil, times)

	b.Run("delta-bitpack-only", func(b *testing.B) {
		b.SetBytes(int64(len(times) * 8))
		var size int
		for i := 0; i < b.N; i++ {
			size = len(codec.EncodeDeltaBPI64(nil, times))
		}
		b.ReportMetric(float64(len(times)*8)/float64(size), "ratio")
	})
	b.Run("delta-bitpack-lz4", func(b *testing.B) {
		b.SetBytes(int64(len(times) * 8))
		var size int
		for i := 0; i < b.N; i++ {
			comp, err := lz4.Compress(nil, transformed)
			if err != nil {
				b.Fatal(err)
			}
			size = len(comp)
		}
		b.ReportMetric(float64(len(times)*8)/float64(size), "ratio")
	})
	b.Run("lz4-only-no-transform", func(b *testing.B) {
		raw := make([]byte, 0, len(times)*8)
		for _, v := range times {
			raw = append(raw, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
				byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
		}
		b.SetBytes(int64(len(raw)))
		var size int
		for i := 0; i < b.N; i++ {
			comp, err := lz4.Compress(nil, raw)
			if err != nil {
				b.Fatal(err)
			}
			size = len(comp)
		}
		b.ReportMetric(float64(len(raw))/float64(size), "ratio")
	})
}
