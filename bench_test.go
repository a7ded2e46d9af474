// Benchmarks regenerating the paper's quantitative results (one bench per
// experiment in DESIGN.md §4; EXPERIMENTS.md records paper-vs-measured).
// Run: go test -bench=. -benchmem
package scuba_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"scuba"
	"scuba/internal/query"
	"scuba/internal/rowblock"
	"scuba/internal/table"
	"scuba/internal/tailer"
)

const benchRows = 100000

// TestMain lets CI measure what the continuous profiler costs the paths
// these benchmarks time: with SCUBA_BENCH_PROFILE=1 the whole benchmark run
// executes under a profiler at the production duty cycle (5s window / 60s
// interval, scaled 10x so short runs still span several capture windows),
// with the rows discarded. The bench gate compares BenchmarkScan* medians
// from a plain run against a profiled run.
func TestMain(m *testing.M) {
	if os.Getenv("SCUBA_BENCH_PROFILE") == "1" {
		sink := scuba.NewTelemetrySink(scuba.TelemetrySinkConfig{
			Emit:            func(string, []scuba.Row) error { return nil },
			Source:          "bench",
			MetricsInterval: -1,
		})
		prof := scuba.NewProfiler(scuba.ProfilerConfig{
			Sink:     sink,
			Source:   "bench",
			Interval: 6 * time.Second,
			Window:   500 * time.Millisecond,
		})
		code := m.Run()
		prof.Close()
		sink.Close()
		os.Exit(code)
	}
	os.Exit(m.Run())
}

type benchEnv struct {
	dir string
}

func newBenchEnv(b *testing.B) benchEnv {
	b.Helper()
	dir, err := os.MkdirTemp("", "scuba-bench-")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(dir) })
	return benchEnv{dir: dir}
}

// benchProcs gives the benchmark n cores: the restart pool and the scan pool
// are both sized by GOMAXPROCS.
func benchProcs(b *testing.B, n int) {
	old := runtime.GOMAXPROCS(n)
	b.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func (e benchEnv) config(id int) scuba.LeafConfig {
	return scuba.LeafConfig{
		ID:           id,
		Shm:          scuba.ShmOptions{Dir: e.dir, Namespace: "bench"},
		DiskRoot:     filepath.Join(e.dir, "disk"),
		MemoryBudget: 8 << 30,
	}
}

func (e benchEnv) startLoaded(b *testing.B, id int, rows int) (*scuba.Leaf, int64) {
	b.Helper()
	l, err := scuba.NewLeaf(e.config(id))
	if err != nil {
		b.Fatal(err)
	}
	if err := l.Start(); err != nil {
		b.Fatal(err)
	}
	gen := scuba.ServiceLogs(42, 1700000000)
	for sent := 0; sent < rows; sent += 10000 {
		n := min(10000, rows-sent)
		if err := l.AddRows("service_logs", gen.NextBatch(n)); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.SealAll(); err != nil {
		b.Fatal(err)
	}
	return l, l.Stats().Bytes
}

// ---- E1/E2: restart paths ----

// BenchmarkShutdownToShm measures Figure 6: copy every table to shared
// memory one RBC at a time and exit (paper: 3-4 s for 10-15 GB).
func BenchmarkShutdownToShm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := newBenchEnv(b)
		l, bytes := e.startLoaded(b, 0, benchRows)
		if _, err := l.SyncToDisk(); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(bytes)
		b.StartTimer()
		if _, err := l.Shutdown(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestartFromShm measures Figure 7: the paper's 2-3 minute path.
func BenchmarkRestartFromShm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := newBenchEnv(b)
		l, bytes := e.startLoaded(b, 0, benchRows)
		if _, err := l.Shutdown(); err != nil {
			b.Fatal(err)
		}
		nu, err := scuba.NewLeaf(e.config(0))
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(bytes)
		b.StartTimer()
		if err := nu.Start(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if nu.Recovery().Path != scuba.RecoveryMemory {
			b.Fatalf("recovery = %v", nu.Recovery().Path)
		}
		b.StartTimer()
	}
}

// BenchmarkRestartFirstQuery measures the instant-on availability gap: from
// replacement Start through the first correct query answer, served zero-copy
// from the mmap'd shm backup while background promotion is still running.
// Compare against BenchmarkRestartFromShm, which pays the full copy-in
// before Start returns.
func BenchmarkRestartFirstQuery(b *testing.B) {
	q := &scuba.Query{Table: "service_logs", From: 0, To: 1 << 62,
		Aggregations: []scuba.Aggregation{{Op: scuba.AggCount}}}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := newBenchEnv(b)
		l, bytes := e.startLoaded(b, 0, benchRows)
		if _, err := l.Shutdown(); err != nil {
			b.Fatal(err)
		}
		cfg := e.config(0)
		cfg.InstantOn = true
		nu, err := scuba.NewLeaf(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(bytes)
		b.StartTimer()
		if err := nu.Start(); err != nil {
			b.Fatal(err)
		}
		if _, err := nu.Query(q); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if nu.Recovery().Path != scuba.RecoveryShmView {
			b.Fatalf("recovery = %v", nu.Recovery().Path)
		}
		if _, err := nu.ShutdownToDisk(); err != nil { // stops the promoter
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkRestartFromDisk measures a restart from the store: load the
// block images a disk-only shutdown left (E8, the paper's §6 future work —
// the shm block format as the disk format). Each start runs on a cold heap,
// as after a real process start: the loader's heap is returned to the OS,
// untimed, first. The paper's row-format translate (its 2.5-3 h path) is
// timed by scuba-bench E1/E8/E21 with the bench-only codec.
func BenchmarkRestartFromDisk(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := newBenchEnv(b)
		l, bytes := e.startLoaded(b, 0, benchRows)
		if _, err := l.ShutdownToDisk(); err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		debug.FreeOSMemory()
		nu, err := scuba.NewLeaf(e.config(0))
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(bytes)
		b.StartTimer()
		if err := nu.Start(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestartFromWAL measures the crash path (§4.1: a crash never
// trusts shm): Start loads the store's block images of benchRows sealed rows
// and replays the log tail behind them, 10k / 30k / 60k rows that only the
// log holds. Each iteration abandons the leaf without Shutdown and returns
// its heap to the OS, untimed, so the replay runs on a cold heap as after a
// real crash; the recovered leaf changes neither the images nor the log, so
// the next one replays the same tail. ns/row is ns/op over the tail, and
// replay-ns/op the restart.table.replay span alone, which the three sizes
// fit as a + b·rows. The rows arrive in 10,000-row batches, one log record
// each; the batch=1000 runs send the 1,000-row batches of the restart_crash
// workload, so their tail is ten times as many records.
func BenchmarkRestartFromWAL(b *testing.B) {
	for _, batch := range []int{10000, 1000} {
		for _, tail := range []int{10000, 30000, 60000} {
			name := fmt.Sprintf("tail=%d", tail)
			if batch != 10000 {
				name = fmt.Sprintf("batch=%d/%s", batch, name)
			}
			b.Run(name, func(b *testing.B) { benchmarkRestartFromWAL(b, batch, tail) })
		}
	}
}

func benchmarkRestartFromWAL(b *testing.B, batch, tail int) {
	e := newBenchEnv(b)
	cfg := e.config(0)
	cfg.WALDir = filepath.Join(e.dir, "wal")
	l, err := scuba.NewLeaf(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := l.Start(); err != nil {
		b.Fatal(err)
	}
	gen := scuba.ServiceLogs(42, 1700000000)
	for sent := 0; sent < benchRows+tail; sent += batch {
		if err := l.AddRows("service_logs", gen.NextBatch(min(batch, benchRows+tail-sent))); err != nil {
			b.Fatal(err)
		}
		if sent+batch == benchRows {
			if err := l.SealAll(); err != nil {
				b.Fatal(err)
			}
			if _, err := l.SyncToDisk(); err != nil {
				b.Fatal(err)
			}
		}
	}
	var replay time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		l.WAL().Close() //nolint:errcheck // the crash: the leaf is abandoned
		runtime.GC()
		debug.FreeOSMemory()
		if l, err = scuba.NewLeaf(cfg); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := l.Start(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if rec := l.Recovery(); rec.Path != scuba.RecoveryWAL || rec.WALRowsReplayed != int64(tail) {
			b.Fatalf("recovery = %v replaying %d rows, want wal replaying %d", rec.Path, rec.WALRowsReplayed, tail)
		}
		for _, sp := range l.RestartTrace() {
			if sp.Phase == "restart.table.replay" {
				replay += sp.Duration
			}
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tail), "ns/row")
	b.ReportMetric(float64(replay.Nanoseconds())/float64(b.N), "replay-ns/op")
}

// BenchmarkCrashStartAfterSync is a crash start behind a sync: three tables
// hold 20,000 unsealed rows each, a SyncToDisk checkpoints every tail as an
// image, and then past=1k/10k/100k more rows, spread over the tables, reach
// only the log before the crash. Each iteration abandons the leaf and times
// the next Start, which adopts the checkpoints as short blocks and replays
// the past rows alone. ns/row is ns/op over them, cpu-ns/op the process CPU
// over the start (RecoveryInfo.CPU), and replay-ns/op the
// restart.table.replay spans; the three sizes fit as a + b·rows.
func BenchmarkCrashStartAfterSync(b *testing.B) {
	for _, past := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("past=%d", past), func(b *testing.B) { benchmarkCrashStartAfterSync(b, past) })
	}
}

func benchmarkCrashStartAfterSync(b *testing.B, past int) {
	const synced, batch = 20000, 1000
	e := newBenchEnv(b)
	cfg := e.config(0)
	cfg.WALDir = filepath.Join(e.dir, "wal")
	l, err := scuba.NewLeaf(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := l.Start(); err != nil {
		b.Fatal(err)
	}
	gens := map[string]*scuba.Workload{
		"service_logs": scuba.ServiceLogs(42, 1700000000),
		"error_events": scuba.ErrorEvents(43, 1700000000),
		"ads_revenue":  scuba.AdsRevenue(44, 1700000000),
	}
	ingest := func(rows int) {
		for name, gen := range gens {
			for sent := 0; sent < rows; sent += batch {
				if err := l.AddRows(name, gen.NextBatch(min(batch, rows-sent))); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	ingest(synced)
	if _, err := l.SyncToDisk(); err != nil {
		b.Fatal(err)
	}
	ingest(past / len(gens))
	replayed := int64(past / len(gens) * len(gens))
	var replay, cpu time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		l.WAL().Close() //nolint:errcheck // the crash: the leaf is abandoned
		runtime.GC()
		debug.FreeOSMemory()
		if l, err = scuba.NewLeaf(cfg); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := l.Start(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		rec := l.Recovery()
		if rec.Path != scuba.RecoveryWAL || rec.WALRowsReplayed != replayed {
			b.Fatalf("recovery = %v replaying %d rows, want wal replaying %d", rec.Path, rec.WALRowsReplayed, replayed)
		}
		cpu += rec.CPU
		for _, sp := range l.RestartTrace() {
			if sp.Phase == "restart.table.replay" {
				replay += sp.Duration
			}
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*replayed), "ns/row")
	b.ReportMetric(float64(cpu.Nanoseconds())/float64(b.N), "cpu-ns/op")
	b.ReportMetric(float64(replay.Nanoseconds())/float64(b.N), "replay-ns/op")
}

// ---- E3/E4: rollover ----

// BenchmarkRolloverShm upgrades a live 16-leaf mini-cluster through shared
// memory, 2 leaves per batch.
func BenchmarkRolloverShm(b *testing.B) {
	benchmarkRollover(b, true)
}

// BenchmarkRolloverDisk is the disk-recovery rollover baseline.
func BenchmarkRolloverDisk(b *testing.B) {
	benchmarkRollover(b, false)
}

func benchmarkRollover(b *testing.B, useShm bool) {
	version := 2
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := newBenchEnv(b)
		c, err := scuba.NewCluster(scuba.ClusterConfig{
			Machines: 4, LeavesPerMachine: 4,
			ShmDir: e.dir, DiskRoot: filepath.Join(e.dir, "disk"),
			Namespace: "bench", MemoryBudgetPerLeaf: 1 << 30,
		})
		if err != nil {
			b.Fatal(err)
		}
		placer := scuba.NewPlacer(c.Targets(), 1)
		gen := scuba.ServiceLogs(1, 1700000000)
		for sent := 0; sent < benchRows; sent += 1000 {
			if _, err := placer.Place("service_logs", gen.NextBatch(1000)); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		rep, err := c.Rollover(scuba.RolloverConfig{
			BatchFraction: 0.125, UseShm: useShm, TargetVersion: version,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		version++
		if got := rep.MinAvailability(); got < 0.8 {
			b.Fatalf("availability dropped to %v", got)
		}
		b.StartTimer()
	}
}

// BenchmarkRolloverSim runs the paper-scale discrete-event model (E3-E5);
// the interesting output is the reported metrics, not ns/op.
func BenchmarkRolloverSim(b *testing.B) {
	p := scuba.DefaultSimParams()
	var shmH, diskH float64
	for i := 0; i < b.N; i++ {
		shmH = p.SimulateRollover(true).Total.Hours()
		diskH = p.SimulateRollover(false).Total.Hours()
	}
	b.ReportMetric(shmH, "shm-hours")
	b.ReportMetric(diskH, "disk-hours")
	b.ReportMetric(diskH/shmH, "speedup")
}

// ---- E6: parallel restarts ----

func BenchmarkParallelRestart(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("leaves=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e := newBenchEnv(b)
				for id := 0; id < k; id++ {
					l, _ := e.startLoaded(b, id, benchRows/4)
					if _, err := l.Shutdown(); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				var wg sync.WaitGroup
				for id := 0; id < k; id++ {
					wg.Add(1)
					go func(id int) {
						defer wg.Done()
						l, err := scuba.NewLeaf(e.config(id))
						if err != nil {
							panic(err)
						}
						if err := l.Start(); err != nil {
							panic(err)
						}
					}(id)
				}
				wg.Wait()
			}
		})
	}
}

// ---- E14: restart copy worker sweep ----

// BenchmarkShutdownRestoreWorkers sweeps the restart-path pool — GOMAXPROCS,
// set inside each workers=N sub-benchmark so ci/benchgate.py still pairs the
// names with the merge-base's — over a multi-table leaf: each iteration is one
// full shutdown+restore cycle. The per-table copy is pure memory bandwidth, so
// wall clock should drop as workers are added until the memory bus saturates.
func BenchmarkShutdownRestoreWorkers(b *testing.B) {
	const tables = 16
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchProcs(b, workers)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e := newBenchEnv(b)
				cfg := e.config(0)
				l, err := scuba.NewLeaf(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := l.Start(); err != nil {
					b.Fatal(err)
				}
				for t := 0; t < tables; t++ {
					gen := scuba.ServiceLogs(int64(t+1), 1700000000)
					if err := l.AddRows(fmt.Sprintf("service_logs_%02d", t), gen.NextBatch(benchRows/8)); err != nil {
						b.Fatal(err)
					}
				}
				if err := l.SealAll(); err != nil {
					b.Fatal(err)
				}
				if _, err := l.SyncToDisk(); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(l.Stats().Bytes)
				b.StartTimer()
				if _, err := l.Shutdown(); err != nil {
					b.Fatal(err)
				}
				nu, err := scuba.NewLeaf(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := nu.Start(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if nu.Recovery().Path != scuba.RecoveryMemory {
					b.Fatalf("recovery = %v", nu.Recovery().Path)
				}
				b.StartTimer()
			}
		})
	}
}

// ---- E7: compression ----

// BenchmarkCompressionRatio seals one full row block of service logs and
// reports the compression ratio the paper discusses (§2.1).
func BenchmarkCompressionRatio(b *testing.B) {
	gen := scuba.ServiceLogs(42, 1700000000)
	rows := gen.NextBatch(65536)
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := benchEnv{dir: b.TempDir()}
		l, err := scuba.NewLeaf(e.config(0))
		if err != nil {
			b.Fatal(err)
		}
		if err := l.Start(); err != nil {
			b.Fatal(err)
		}
		if err := l.AddRows("service_logs", rows); err != nil {
			b.Fatal(err)
		}
		if err := l.SealAll(); err != nil {
			b.Fatal(err)
		}
		raw := int64(65536 * 60) // ~60 raw bytes per row in this workload
		ratio = float64(raw) / float64(l.Stats().Bytes)
	}
	b.ReportMetric(ratio, "ratio")
}

// ---- E10: tailer placement ----

func BenchmarkTailerPlacement(b *testing.B) {
	e := newBenchEnv(b)
	const nLeaves = 8
	targets := make([]tailer.Target, nLeaves)
	for i := range targets {
		l, _ := e.startLoaded(b, i, 0)
		targets[i] = benchTarget{l}
	}
	placer := scuba.NewPlacer(targets, 99)
	gen := scuba.ServiceLogs(3, 1700000000)
	batch := gen.NextBatch(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := placer.Place("service_logs", batch); err != nil {
			b.Fatal(err)
		}
	}
}

type benchTarget struct{ l *scuba.Leaf }

func (t benchTarget) Stats() (scuba.LeafStats, error) { return t.l.Stats(), nil }
func (t benchTarget) AddRows(table string, rows []scuba.Row) error {
	return t.l.AddRows(table, rows)
}

// ---- E11: queries ----

func BenchmarkQueryCount(b *testing.B) {
	benchmarkQuery(b, &scuba.Query{
		Table: "service_logs", From: 0, To: 1 << 40,
		Aggregations: []scuba.Aggregation{{Op: scuba.AggCount}},
	})
}

func BenchmarkQueryGroupBy(b *testing.B) {
	benchmarkQuery(b, &scuba.Query{
		Table: "service_logs", From: 0, To: 1 << 40,
		Aggregations: []scuba.Aggregation{{Op: scuba.AggCount}, {Op: scuba.AggAvg, Column: "latency_ms"}},
		GroupBy:      []string{"service"},
	})
}

func BenchmarkQueryFiltered(b *testing.B) {
	benchmarkQuery(b, &scuba.Query{
		Table: "service_logs", From: 0, To: 1 << 40,
		Filters:      []scuba.Filter{{Column: "status", Op: scuba.OpGe, Int: 500}},
		Aggregations: []scuba.Aggregation{{Op: scuba.AggCount}, {Op: scuba.AggP99, Column: "latency_ms"}},
		GroupBy:      []string{"host"},
		Limit:        10,
	})
}

// BenchmarkQueryTimePruned measures the min/max-time block skip (§2.1): a
// narrow window touches one block no matter how large the table is.
func BenchmarkQueryTimePruned(b *testing.B) {
	benchmarkQuery(b, &scuba.Query{
		Table: "service_logs", From: 1700000000, To: 1700000010,
		Aggregations: []scuba.Aggregation{{Op: scuba.AggCount}},
	})
}

// BenchmarkQueryUnsealedTail measures a query over rows that arrived since
// the last seal: max over a 60k-row unsealed tail of a table with six
// columns besides time. Its view is taken under the table lock, where ingest
// waits for it, and must not cost more for the columns the query never reads.
func BenchmarkQueryUnsealedTail(b *testing.B) {
	benchmarkUnsealedTail(b, 0, &scuba.Query{
		Table: "service_logs", From: 0, To: 1 << 40,
		Aggregations: []scuba.Aggregation{{Op: scuba.AggMax, Column: "latency_ms"}},
	})
}

// BenchmarkQueryUnsealedTailGrouped is the ingest reader's window query —
// count and sum of latency by service — over the same 60k-row tail. A tail
// row's strings are interned by the first query that reads them, so a later
// query groups on the IDs the builder holds instead of building a dictionary.
func BenchmarkQueryUnsealedTailGrouped(b *testing.B) {
	benchmarkUnsealedTail(b, 0, &scuba.Query{
		Table: "service_logs", From: 0, To: 1 << 40,
		GroupBy:      []string{"service"},
		Aggregations: []scuba.Aggregation{{Op: scuba.AggCount}, {Op: scuba.AggSum, Column: "latency_ms"}},
	})
}

// BenchmarkQueryUnsealedTailWindow is the same query over the window the
// ingest reader asks for: the newest 1024 s of the tail, a few thousand of
// its 60k rows. The header cannot answer that range, so the scan finds it
// in the tail's ascending times with two binary searches.
func BenchmarkQueryUnsealedTailWindow(b *testing.B) {
	benchmarkUnsealedTail(b, 1024, &scuba.Query{
		Table: "service_logs", To: 1 << 40,
		GroupBy:      []string{"service"},
		Aggregations: []scuba.Aggregation{{Op: scuba.AggCount}, {Op: scuba.AggSum, Column: "latency_ms"}},
	})
}

// benchmarkUnsealedTail runs q over a table whose 60k rows are all unsealed;
// newest > 0 starts q that many seconds before the newest row.
func benchmarkUnsealedTail(b *testing.B, newest int64, q *scuba.Query) {
	e := newBenchEnv(b)
	l, _ := e.startLoaded(b, 0, 0)
	gen := scuba.ServiceLogs(42, 1700000000)
	for range 6 {
		if err := l.AddRows("service_logs", gen.NextBatch(10000)); err != nil {
			b.Fatal(err)
		}
	}
	if st := l.Stats(); st.Blocks != 0 || st.Rows != 60000 {
		b.Fatalf("%d rows in %d sealed blocks, want 60000 unsealed", st.Rows, st.Blocks)
	}
	if newest > 0 {
		q.From = gen.Now() - newest
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkQuery(b *testing.B, q *scuba.Query) {
	e := newBenchEnv(b)
	l, bytes := e.startLoaded(b, 0, benchRows*2)
	b.SetBytes(bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ingest ----

func BenchmarkIngest(b *testing.B) {
	e := newBenchEnv(b)
	l, _ := e.startLoaded(b, 0, 0)
	gen := scuba.ServiceLogs(42, 1700000000)
	batch := gen.NextBatch(1000)
	b.SetBytes(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.AddRows("service_logs", batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAddRowsWAL measures the ingest path with the write-ahead log on:
// each 1000-row batch is framed, CRC'd, appended, and fsynced before the ack.
// Gated against BenchmarkIngest-style regressions in CI: the WAL must stay a
// bounded tax on AddRows.
func BenchmarkAddRowsWAL(b *testing.B) {
	e := newBenchEnv(b)
	cfg := e.config(0)
	cfg.WALDir = filepath.Join(e.dir, "wal")
	l, err := scuba.NewLeaf(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := l.Start(); err != nil {
		b.Fatal(err)
	}
	gen := scuba.ServiceLogs(42, 1700000000)
	batch := gen.NextBatch(1000)
	b.SetBytes(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.AddRows("service_logs", batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSealBlock measures one full service_logs block from AppendBatch
// through Seal, under the table lock: its cost is what ingest waits for at a
// block boundary, and the largest table's seal is the largest step of a
// planned shutdown. "rows" appends one 65,536-row batch built from rows;
// "frames" fills the builder as ingest and replay do, from 66 decoded
// 1,000-row frames through one reused batch. seal-ns/op is Seal alone.
func BenchmarkSealBlock(b *testing.B) {
	gen := scuba.ServiceLogs(42, 1700000000)
	whole, err := rowblock.FromRows(gen.NextBatch(rowblock.MaxRows))
	if err != nil {
		b.Fatal(err)
	}
	var frames [][]byte
	for range 66 {
		bt, err := rowblock.FromRows(gen.NextBatch(1000))
		if err != nil {
			b.Fatal(err)
		}
		frames = append(frames, bt.AppendFrame(nil))
	}
	var reused rowblock.Batch
	fill := map[string]func(*rowblock.Builder) error{
		"rows": func(bl *rowblock.Builder) error {
			_, err := bl.AppendBatch(whole)
			return err
		},
		"frames": func(bl *rowblock.Builder) error {
			for _, f := range frames {
				if err := reused.Decode(f); err != nil {
					return err
				}
				if _, err := bl.AppendBatch(&reused); err != nil || bl.Full() {
					return err
				}
			}
			return nil
		},
	}
	for _, name := range []string{"rows", "frames"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var seal time.Duration
			for i := 0; i < b.N; i++ {
				bl := rowblock.NewBuilder(1)
				if err := fill[name](bl); err != nil || bl.Rows() != rowblock.MaxRows {
					b.Fatalf("appended %d of %d rows: %v", bl.Rows(), rowblock.MaxRows, err)
				}
				start := time.Now()
				if _, err := bl.Seal(); err != nil {
					b.Fatal(err)
				}
				seal += time.Since(start)
			}
			b.ReportMetric(float64(seal.Nanoseconds())/float64(b.N), "seal-ns/op")
		})
	}
}

// BenchmarkIngestWire measures the networked ingest path end to end: rows
// held by a tailer -> wire.Client (transpose into one batch frame) ->
// loopback server -> WAL leaf (the frame's bytes logged and fsynced, decoded
// once, column vectors appended), in 1000-row batches. Gated in CI so a
// reflective codec cannot creep back between the tailer and the builder.
func BenchmarkIngestWire(b *testing.B) {
	e := newBenchEnv(b)
	cfg := e.config(0)
	cfg.WALDir = filepath.Join(e.dir, "wal")
	l, err := scuba.NewLeaf(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := l.Start(); err != nil {
		b.Fatal(err)
	}
	srv, err := scuba.NewServer(l, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c := scuba.DialLeaf(srv.Addr())
	defer c.Close()
	const batchRows = 1000
	batch := scuba.ServiceLogs(42, 1700000000).NextBatch(batchRows)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.AddRows("service_logs", batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	rows := float64(b.N * batchRows)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/rows, "allocs/row")
}

// BenchmarkAggregatorFanOut measures a grouped query fanned out over a
// 16-leaf aggregator — the per-query cost users see on dashboards.
func BenchmarkAggregatorFanOut(b *testing.B) {
	e := newBenchEnv(b)
	c, err := scuba.NewCluster(scuba.ClusterConfig{
		Machines: 4, LeavesPerMachine: 4,
		ShmDir: e.dir, DiskRoot: filepath.Join(e.dir, "disk"),
		Namespace: "bench", MemoryBudgetPerLeaf: 1 << 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	placer := scuba.NewPlacer(c.Targets(), 1)
	gen := scuba.ServiceLogs(1, 1700000000)
	for sent := 0; sent < benchRows; sent += 1000 {
		if _, err := placer.Place("service_logs", gen.NextBatch(1000)); err != nil {
			b.Fatal(err)
		}
	}
	agg := c.NewAggregator()
	q := &scuba.Query{Table: "service_logs", From: 0, To: 1 << 40,
		Aggregations: []scuba.Aggregation{{Op: scuba.AggCount}, {Op: scuba.AggP99, Column: "latency_ms"}},
		GroupBy:      []string{"service"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := agg.Query(q)
		if err != nil {
			b.Fatal(err)
		}
		if res.LeavesAnswered != 16 {
			b.Fatalf("answered = %d", res.LeavesAnswered)
		}
	}
}

// BenchmarkResultMergeWire measures the result path of dash_read's scan
// class with the scan made small: two wire leaves each answer 2,400 groups x
// {count, avg, p99} out of one warm block, and a client reads the merge
// through a loopback aggregator server — two leaf replies encoded and
// decoded, one merge, one aggregator reply, one Rows. Gated in CI so the
// result's representation cannot grow a conversion per hop again.
func BenchmarkResultMergeWire(b *testing.B) {
	e := newBenchEnv(b)
	q := &scuba.Query{
		Table: "service_logs", From: 0, To: 1 << 40,
		GroupBy: []string{"host", "service"},
		Aggregations: []scuba.Aggregation{
			{Op: scuba.AggCount},
			{Op: scuba.AggAvg, Column: "cpu_ms"},
			{Op: scuba.AggP99, Column: "latency_ms"},
		},
	}
	var addrs []string
	for id := 0; id < 2; id++ {
		cfg := e.config(id)
		cfg.DecodeCacheBytes = 64 << 20
		l, err := scuba.NewLeaf(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := l.Start(); err != nil {
			b.Fatal(err)
		}
		if err := l.AddRows("service_logs", scuba.ServiceLogs(int64(42+id), 1700000000).NextBatch(65536)); err != nil {
			b.Fatal(err)
		}
		if err := l.SealAll(); err != nil {
			b.Fatal(err)
		}
		srv, err := scuba.NewServer(l, "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		addrs = append(addrs, srv.Addr())
	}
	agg, err := scuba.NewAggServer(addrs, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer agg.Close()
	c := scuba.DialLeaf(agg.Addr())
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.QueryVia(q)
		if err != nil {
			b.Fatal(err)
		}
		if rows := res.Rows(q); len(rows) != 200*12 || res.LeavesAnswered != 2 {
			b.Fatalf("%d rows from %d leaves", len(rows), res.LeavesAnswered)
		}
	}
}

// BenchmarkResultFrame measures the result codec alone on the same answer:
// one leaf's 2,400 groups x {count, avg, p99} encoded to a result frame and
// decoded back, which is what every hop of a query pays once each way.
// SetBytes is the frame's size, so MB/s and B/op are on the record. Gated in
// CI beside BenchmarkResultMergeWire.
func BenchmarkResultFrame(b *testing.B) {
	e := newBenchEnv(b)
	cfg := e.config(0)
	l, err := scuba.NewLeaf(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := l.Start(); err != nil {
		b.Fatal(err)
	}
	if err := l.AddRows("service_logs", scuba.ServiceLogs(42, 1700000000).NextBatch(65536)); err != nil {
		b.Fatal(err)
	}
	res, err := l.Query(&scuba.Query{
		Table: "service_logs", From: 0, To: 1 << 40,
		GroupBy: []string{"host", "service"},
		Aggregations: []scuba.Aggregation{
			{Op: scuba.AggCount},
			{Op: scuba.AggAvg, Column: "cpu_ms"},
			{Op: scuba.AggP99, Column: "latency_ms"},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	frame, err := res.AppendFrame(nil)
	if err != nil || len(res.Groups) != 200*12 {
		b.Fatalf("%d groups, %v", len(res.Groups), err)
	}
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if frame, err = res.AppendFrame(frame[:0]); err != nil {
			b.Fatal(err)
		}
		back, err := query.DecodeResultFrame(frame)
		if err != nil || len(back.Groups) != len(res.Groups) {
			b.Fatalf("decoded %v, %v", back, err)
		}
	}
}

// BenchmarkTimeSeriesQuery measures the dashboard time-series panel shape:
// per-minute error counts over the whole dataset.
func BenchmarkTimeSeriesQuery(b *testing.B) {
	benchmarkQuery(b, &scuba.Query{
		Table: "service_logs", From: 0, To: 1 << 40,
		TimeBucketSeconds: 60,
		Filters:           []scuba.Filter{{Column: "status", Op: scuba.OpGe, Int: 500}},
		Aggregations:      []scuba.Aggregation{{Op: scuba.AggCount}},
	})
}

// ---- E17: in-leaf scan path (parallel workers, zone maps, decode cache) ----

const scanBenchBlocks = 16

// scanBenchLeaf loads one table as scanBenchBlocks sealed blocks whose "seq"
// column increases monotonically, so every block's zone map covers a disjoint
// range and a point filter can prune all but one block.
func scanBenchLeaf(b *testing.B, workers int, cacheBytes int64) *scuba.Leaf {
	return scanBenchLeafReg(b, workers, cacheBytes, nil)
}

// scanBenchLeafReg is scanBenchLeaf with a metrics registry attached, for
// the self-telemetry overhead pair (E20).
func scanBenchLeafReg(b *testing.B, workers int, cacheBytes int64, reg *scuba.MetricsRegistry) *scuba.Leaf {
	b.Helper()
	benchProcs(b, workers)
	e := newBenchEnv(b)
	cfg := e.config(0)
	cfg.DecodeCacheBytes = cacheBytes
	cfg.Metrics = reg
	l, err := scuba.NewLeaf(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := l.Start(); err != nil {
		b.Fatal(err)
	}
	per := benchRows / scanBenchBlocks
	seq := int64(0)
	services := []string{"web", "api", "ads", "search"}
	for blk := 0; blk < scanBenchBlocks; blk++ {
		rows := make([]scuba.Row, per)
		for i := range rows {
			rows[i] = scuba.Row{
				Time: 1700000000 + seq,
				Cols: map[string]scuba.Value{
					"seq":        scuba.Int64(seq),
					"service":    scuba.String(services[seq%4]),
					"latency_ms": scuba.Float64(float64(seq%500) / 2),
				},
			}
			seq++
		}
		if err := l.AddRows("events", rows); err != nil {
			b.Fatal(err)
		}
		if err := l.SealAll(); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(benchRows))
	return l
}

func scanQueryFull() *scuba.Query {
	return &scuba.Query{
		Table: "events", From: 0, To: 1 << 40,
		GroupBy:      []string{"service"},
		Aggregations: []scuba.Aggregation{{Op: scuba.AggCount}, {Op: scuba.AggAvg, Column: "latency_ms"}},
	}
}

func scanQueryPoint() *scuba.Query {
	return &scuba.Query{
		Table: "events", From: 0, To: 1 << 40,
		Filters:      []scuba.Filter{{Column: "seq", Op: scuba.OpEq, Int: benchRows / 2}},
		Aggregations: []scuba.Aggregation{{Op: scuba.AggCount}, {Op: scuba.AggAvg, Column: "latency_ms"}},
	}
}

// BenchmarkScanSerialCold is the pre-feature baseline shape: one worker, no
// decode cache, full-table group-by.
func BenchmarkScanSerialCold(b *testing.B) {
	l := scanBenchLeaf(b, 1, 0)
	q := scanQueryFull()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanParallel sweeps the scan worker pool over the same
// full-table query (speedup needs >1 core; on one core it should only
// add bounded overhead).
func BenchmarkScanParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			l := scanBenchLeaf(b, workers, 0)
			q := scanQueryFull()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Query(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScanWarmCache repeats the full-table query against a warm
// decoded-column cache — the repeated-dashboard case the cache exists for.
func BenchmarkScanWarmCache(b *testing.B) {
	l := scanBenchLeaf(b, 1, 256<<20)
	q := scanQueryFull()
	if _, err := l.Query(q); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanDashboard is the shape the scan kernels exist for, and the
// one dash_read's scan class sends: a string-set contains filter, a
// two-column group-by (200 hosts x 12 services) and count / avg / p99, over
// service_logs rows. cold decodes every column on every run and walks the
// encoded tags rows (no decode cache); warm finds every column in the decode
// cache, tags as one bitmask a row; first runs with a decode cache that is
// empty when each run starts — the first dashboard after a restart, which
// decodes every column, builds tags' masks and fills the cache. The blocks
// are full-size (a key is built once per group per block, so 2400 groups over
// small blocks would time key building, not the kernels).
func BenchmarkScanDashboard(b *testing.B) {
	q := &scuba.Query{
		Table: "service_logs", From: 0, To: 1 << 40,
		Filters: []scuba.Filter{{Column: "tags", Op: scuba.OpContains, Str: "prod"}},
		GroupBy: []string{"host", "service"},
		Aggregations: []scuba.Aggregation{
			{Op: scuba.AggCount},
			{Op: scuba.AggAvg, Column: "cpu_ms"},
			{Op: scuba.AggP99, Column: "latency_ms"},
		},
	}
	for _, mode := range []struct {
		name       string
		cacheBytes int64
	}{{"cold", 0}, {"warm", 256 << 20}, {"first", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			l := dashboardLeaf(b, mode.cacheBytes, q)
			run := func() (*scuba.Result, error) { return l.Query(q) }
			if mode.name == "first" {
				// The leaf's own path, with a cache of its own per run.
				tbl := l.Table("service_logs")
				run = func() (*scuba.Result, error) {
					return query.Execute(tbl, q, query.ExecOptions{Cache: query.NewDecodeCache(256<<20, nil)})
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// dashboardLeaf is BenchmarkScanDashboard's leaf: 4 full-size sealed blocks
// of service_logs rows, with a decode cache of cacheBytes (none when 0) that
// one run of q has filled, checked to reach every block and 200 x 12 groups.
func dashboardLeaf(b *testing.B, cacheBytes int64, q *scuba.Query) *scuba.Leaf {
	const blocks, perBlock = 4, 65536
	benchProcs(b, 1)
	e := newBenchEnv(b)
	cfg := e.config(0)
	cfg.DecodeCacheBytes = cacheBytes
	l, err := scuba.NewLeaf(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := l.Start(); err != nil {
		b.Fatal(err)
	}
	gen := scuba.ServiceLogs(42, 1700000000)
	for blk := 0; blk < blocks; blk++ {
		if err := l.AddRows("service_logs", gen.NextBatch(perBlock)); err != nil {
			b.Fatal(err)
		}
		if err := l.SealAll(); err != nil {
			b.Fatal(err)
		}
	}
	res, err := l.Query(q)
	if err != nil {
		b.Fatal(err)
	}
	if res.RowsScanned != blocks*perBlock || res.BlocksScanned != blocks || len(res.Groups) != 200*12 {
		b.Fatalf("scanned %d rows of %d blocks into %d groups", res.RowsScanned, res.BlocksScanned, len(res.Groups))
	}
	b.SetBytes(blocks * perBlock)
	return l
}

// BenchmarkScanWindow is dash_read's window panel on the leaf's query path:
// one bucket-aligned 1/64 of the loaded time range, grouped by service, count
// and a sum, over a table of service_logs rows with the workload's 32 MB
// decode cache, drawn from a seeded sequence of windows. A window holds
// ~15,000 rows and lies across one or two 65,536-row blocks, whose time
// columns every query decodes (the cache holds the others): at 1M rows the
// cache holds every block's grouped and summed columns, at 10M rows (skipped
// under -short) the working set is ~10x the budget.
func BenchmarkScanWindow(b *testing.B) {
	sizes := []int{1 << 20, 10 << 20}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, rows := range sizes {
		b.Run(fmt.Sprintf("rows=%dM", rows>>20), func(b *testing.B) {
			tbl, last := windowTable(b, rows)
			const first, bucket = 1700000000, 64
			w := max((last-first+1)/64/bucket, 1) * bucket
			rng := rand.New(rand.NewSource(1))
			qs := make([]*scuba.Query, 256)
			for i := range qs {
				from := first + rng.Int63n(max((last-first+1)/w, 1))*w
				qs[i] = &scuba.Query{
					Table: "service_logs", From: from, To: from + w - 1,
					GroupBy:      []string{"service"},
					Aggregations: []scuba.Aggregation{{Op: scuba.AggCount}, {Op: scuba.AggSum, Column: "latency_ms"}},
				}
			}
			opts := query.ExecOptions{Cache: query.NewDecodeCache(32<<20, nil)}
			for _, q := range qs { // the cache as a running dashboard has it
				if _, err := query.Execute(tbl, q, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := query.Execute(tbl, qs[i%len(qs)], opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// windowTables keeps BenchmarkScanWindow's tables by row count for the whole
// run: a sub-benchmark's function runs once for each b.N it tries, and the
// 10M-row table takes tens of seconds to load.
var windowTables sync.Map // rows → *windowFixture

type windowFixture struct {
	tbl  *table.Table
	last int64 // the newest row's time
}

// windowTable returns a table of rows sealed service_logs rows and the time
// of its newest row.
func windowTable(b *testing.B, rows int) (*table.Table, int64) {
	b.Helper()
	if f, ok := windowTables.Load(rows); ok {
		return f.(*windowFixture).tbl, f.(*windowFixture).last
	}
	tbl := table.New("service_logs", table.Options{})
	gen := scuba.ServiceLogs(42, 1700000000)
	for sent := 0; sent < rows; sent += 10000 {
		if err := tbl.AddRows(gen.NextBatch(min(10000, rows-sent)), 1); err != nil {
			b.Fatal(err)
		}
	}
	if err := tbl.SealActive(); err != nil {
		b.Fatal(err)
	}
	windowTables.Store(rows, &windowFixture{tbl, gen.Now()})
	return tbl, gen.Now()
}

// BenchmarkDecodeColumn decodes one column of one full-size, sealed
// service_logs block a run — LZ4 and the bit-packing kernels, the decode
// cache's miss: the time column (delta-packed and summed), an int64 column
// (latency_ms, delta-packed) and a dictionary column (host, packed IDs).
func BenchmarkDecodeColumn(b *testing.B) {
	bt, err := rowblock.FromRows(scuba.ServiceLogs(42, 1700000000).NextBatch(rowblock.MaxRows))
	if err != nil {
		b.Fatal(err)
	}
	bl := rowblock.NewBuilder(1)
	if n, err := bl.AppendBatch(bt); err != nil || n != rowblock.MaxRows {
		b.Fatalf("appended %d of %d rows: %v", n, rowblock.MaxRows, err)
	}
	rb, err := bl.Seal()
	if err != nil {
		b.Fatal(err)
	}
	times := make([]int64, rowblock.MaxRows) // the scan's reused scratch
	for _, c := range []struct {
		name   string
		decode func() error
	}{
		{"time", func() error { _, err := rb.Times(times); return err }},
		{"int64", func() error { _, err := rb.DecodeColumn("latency_ms"); return err }},
		{"dict", func() error { _, err := rb.DecodeColumn("host"); return err }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.decode(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rowblock.MaxRows, "ns/value")
		})
	}
}

// BenchmarkScanAggregates times each aggregate kernel on its own: the
// dashboard's 4 x 65,536 rows and 200 x 12 host/service groups, warm, and
// one aggregation a sub-benchmark, so a kernel that slows down shows by op
// (count_distinct on a string, the host).
func BenchmarkScanAggregates(b *testing.B) {
	for _, a := range []scuba.Aggregation{
		{Op: scuba.AggCount}, {Op: scuba.AggSum, Column: "cpu_ms"}, {Op: scuba.AggAvg, Column: "cpu_ms"},
		{Op: scuba.AggMin, Column: "cpu_ms"}, {Op: scuba.AggP99, Column: "latency_ms"},
		{Op: scuba.AggCountDistinct, Column: "host"},
	} {
		b.Run(a.Op.String(), func(b *testing.B) {
			q := &scuba.Query{
				Table: "service_logs", From: 0, To: 1 << 40,
				GroupBy:      []string{"host", "service"},
				Aggregations: []scuba.Aggregation{a},
			}
			l := dashboardLeaf(b, 256<<20, q)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Query(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScanTraced runs the full-table query through the traced entry
// point — phase timing, ExecStats assembly and span echo included. Compare
// against BenchmarkScanSerialCold: the delta is the tracing overhead on the
// hot path, and it must stay in the noise (the ~2% acceptance bar in
// EXPERIMENTS.md E18).
func BenchmarkScanTraced(b *testing.B) {
	l := scanBenchLeaf(b, 1, 0)
	q := scanQueryFull()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc := scuba.TraceContext{TraceID: uint64(i + 1), SpanID: uint64(i + 1)}
		if _, _, err := l.QueryTraced(q, tc); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E20: self-telemetry (Scuba-on-Scuba) overhead on the scan path ----

// BenchmarkScanSinkDisabled is the control half of the E20 pair: the same
// leaf and metrics registry as the enabled variant, but no telemetry sink.
func BenchmarkScanSinkDisabled(b *testing.B) {
	l := scanBenchLeafReg(b, 1, 0, scuba.NewMetricsRegistry())
	q := scanQueryFull()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanSinkEnabled runs the same scan while a telemetry sink
// self-ingests the leaf's metric snapshots into its own __system tables
// every 5ms — three orders of magnitude more aggressive than the 15s
// production default, so the measured delta over BenchmarkScanSinkDisabled
// bounds the real tax (the E20 acceptance bar in EXPERIMENTS.md).
func BenchmarkScanSinkEnabled(b *testing.B) {
	reg := scuba.NewMetricsRegistry()
	l := scanBenchLeafReg(b, 1, 0, reg)
	sink := scuba.NewTelemetrySink(scuba.TelemetrySinkConfig{
		Emit:            l.AddRows,
		Source:          "bench",
		Registry:        reg,
		MetricsInterval: 5 * time.Millisecond,
	})
	defer sink.Close()
	q := scanQueryFull()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanZonePruned runs a point filter whose zone maps prove all but
// one block can't match; the decode skip is the win being measured.
func BenchmarkScanZonePruned(b *testing.B) {
	l := scanBenchLeaf(b, 1, 0)
	q := scanQueryPoint()
	res, err := l.Query(q)
	if err != nil {
		b.Fatal(err)
	}
	if res.BlocksPruned != scanBenchBlocks-1 {
		b.Fatalf("pruned %d of %d blocks", res.BlocksPruned, scanBenchBlocks)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}
