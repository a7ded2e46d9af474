package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"scuba"
	"scuba/internal/aggregator"
	"scuba/internal/column"
	"scuba/internal/disk"
	"scuba/internal/fault"
	"scuba/internal/layout"
	"scuba/internal/rowblock"
	"scuba/internal/sim"
	"scuba/internal/workload"
)

// bench is the shared scaffolding: temp dirs cleaned at exit.
type bench struct {
	dir string
}

func newBench() (*bench, func()) {
	dir, err := os.MkdirTemp("", "scuba-bench-")
	if err != nil {
		panic(err)
	}
	return &bench{dir: dir}, func() { os.RemoveAll(dir) }
}

func (b *bench) leafConfig(id int) scuba.LeafConfig {
	return scuba.LeafConfig{
		ID:           id,
		Shm:          scuba.ShmOptions{Dir: filepath.Join(b.dir, "shm"), Namespace: "bench"},
		DiskRoot:     filepath.Join(b.dir, "disk"),
		MemoryBudget: 8 << 30,
	}
}

func (b *bench) newLeaf(id int) (*scuba.Leaf, error) {
	if err := os.MkdirAll(filepath.Join(b.dir, "shm"), 0o755); err != nil {
		return nil, err
	}
	l, err := scuba.NewLeaf(b.leafConfig(id))
	if err != nil {
		return nil, err
	}
	return l, l.Start()
}

// loadLeaf fills a leaf with the service-log workload and seals it.
func loadLeaf(l *scuba.Leaf, rows int) (int64, error) {
	gen := scuba.ServiceLogs(42, 1700000000)
	const batch = 10000
	for sent := 0; sent < rows; sent += batch {
		n := batch
		if sent+n > rows {
			n = rows - sent
		}
		if err := l.AddRows("service_logs", gen.NextBatch(n)); err != nil {
			return 0, err
		}
	}
	if err := l.SealAll(); err != nil {
		return 0, err
	}
	return l.Stats().Bytes, nil
}

// ---- E1: restart from disk vs shared memory ----

func runE1() error {
	fmt.Printf("%10s %12s | %12s %12s %12s | %12s %12s %10s\n",
		"rows", "data", "disk read", "disk total", "translate%", "image load", "shm restore", "speedup")
	var lastDisk, lastShm time.Duration
	var lastBytes int64
	for _, rows := range []int{*rowsFlag / 4, *rowsFlag / 2, *rowsFlag} {
		b, cleanup := newBench()
		l, err := b.newLeaf(0)
		if err != nil {
			cleanup()
			return err
		}
		bytes, err := loadLeaf(l, rows)
		if err != nil {
			cleanup()
			return err
		}
		// The paper's disk path: the same blocks as row-format files, read
		// and translated back one after another (the bench-only codec; no
		// leaf writes this format any more).
		tr, err := translateRowFormat(filepath.Join(b.dir, "rowformat"), l)
		if err != nil {
			cleanup()
			return err
		}
		diskDur := tr.read + tr.translate

		// What a disk restart costs today: load the store's block images.
		if _, err := l.ShutdownToDisk(); err != nil {
			cleanup()
			return err
		}
		l2, err := b.newLeaf(0)
		if err != nil {
			cleanup()
			return err
		}
		imageDur := l2.Recovery().Duration

		// Shm path on the same data.
		if _, err := l2.Shutdown(); err != nil {
			cleanup()
			return err
		}
		l3, err := b.newLeaf(0)
		if err != nil {
			cleanup()
			return err
		}
		if l3.Recovery().Path != scuba.RecoveryMemory {
			cleanup()
			return fmt.Errorf("expected memory recovery, got %v", l3.Recovery().Path)
		}
		shmDur := l3.Recovery().Duration
		translatePct := 100 * tr.translate.Seconds() / diskDur.Seconds()
		fmt.Printf("%10d %12s | %12v %12v %11.0f%% | %12v %12v %9.1fx\n",
			rows, mb(bytes), tr.read.Round(time.Millisecond), diskDur.Round(time.Millisecond),
			translatePct, imageDur.Round(100*time.Microsecond), shmDur.Round(100*time.Microsecond),
			diskDur.Seconds()/shmDur.Seconds())
		lastDisk, lastShm, lastBytes = diskDur, shmDur, bytes
		cleanup()
	}

	// Extrapolate the largest run to paper scale with the calibrated model.
	p := sim.DefaultParams().Calibrate(lastBytes, lastDisk, lastShm)
	fmt.Printf("\ncalibrated to measured rates: one 120 GB machine restarts in %s from disk, %s from shm\n",
		sim.FormatDuration(p.MachineRestartTime(false)), sim.FormatDuration(p.MachineRestartTime(true)))
	fmt.Println("paper: 2.5-3 hours from disk (20-25 min of it raw reads), 2-3 minutes from shared memory")
	return nil
}

// rowTranslate times the paper's row-format disk recovery over one dataset.
type rowTranslate struct {
	write     time.Duration // encode every block row by row and write it
	read      time.Duration // read the files back: the raw disk read
	translate time.Duration // rebuild column blocks from the rows
	rows      int
}

// translateRowFormat reproduces the paper's disk backup and recovery over a
// leaf's sealed blocks with the bench-only row codec: every block is encoded
// and written as one row-format file under dir, then the files are read and
// translated back into column blocks one after another, as the row-format
// store's recovery did. Only the leaf's fixed Start cost is left out.
func translateRowFormat(dir string, l *scuba.Leaf) (rowTranslate, error) {
	var tr rowTranslate
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return tr, err
	}
	var files []string
	start := time.Now()
	for _, name := range l.Tables() {
		for i, rb := range l.Table(name).Blocks() {
			data, err := encodeRowFormat(rb)
			if err != nil {
				return tr, err
			}
			path := filepath.Join(dir, fmt.Sprintf("%s-%08d.drw", disk.EncodeTableName(name), i))
			if err := os.WriteFile(path, data, 0o644); err != nil {
				return tr, err
			}
			files = append(files, path)
		}
	}
	tr.write = time.Since(start)
	for _, path := range files {
		start = time.Now()
		data, err := os.ReadFile(path)
		if err != nil {
			return tr, err
		}
		tr.read += time.Since(start)
		start = time.Now()
		rb, err := decodeRowFormat(data)
		if err != nil {
			return tr, err
		}
		tr.translate += time.Since(start)
		tr.rows += rb.Rows()
	}
	return tr, nil
}

// ---- E2: shutdown to shared memory ----

func runE2() error {
	fmt.Printf("%10s %12s | %14s %14s %12s\n", "rows", "data", "shutdown(shm)", "copy rate", "tables")
	for _, rows := range []int{*rowsFlag / 4, *rowsFlag / 2, *rowsFlag} {
		b, cleanup := newBench()
		l, err := b.newLeaf(0)
		if err != nil {
			cleanup()
			return err
		}
		if _, err := loadLeaf(l, rows); err != nil {
			cleanup()
			return err
		}
		info, err := l.Shutdown()
		if err != nil {
			cleanup()
			return err
		}
		rate := float64(info.BytesCopied) / (1 << 20) / info.Duration.Seconds()
		fmt.Printf("%10d %12s | %14v %11.0f MB/s %12d\n",
			rows, mb(info.BytesCopied), info.Duration.Round(time.Millisecond), rate, info.Tables)
		cleanup()
	}
	fmt.Println("paper: the leaf copies its data to shared memory and exits in 3-4 seconds (10-15 GB)")
	return nil
}

// ---- E3: full-cluster rollover ----

func runE3() error {
	// Live mini-cluster measurement.
	b, cleanup := newBench()
	defer cleanup()
	c, err := scuba.NewCluster(scuba.ClusterConfig{
		Machines: 4, LeavesPerMachine: 4,
		ShmDir: filepath.Join(b.dir, "shm"), DiskRoot: filepath.Join(b.dir, "disk"),
		Namespace: "bench", MemoryBudgetPerLeaf: 1 << 30,
	})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(b.dir, "shm"), 0o755); err != nil {
		return err
	}
	placer := scuba.NewPlacer(c.Targets(), 1)
	gen := scuba.ServiceLogs(1, 1700000000)
	for sent := 0; sent < *rowsFlag; sent += 1000 {
		if _, err := placer.Place("service_logs", gen.NextBatch(1000)); err != nil {
			return err
		}
	}
	var live = map[bool]time.Duration{}
	version := 2
	for _, useShm := range []bool{true, false} {
		rep, err := c.Rollover(scuba.RolloverConfig{BatchFraction: 0.125, UseShm: useShm, TargetVersion: version})
		if err != nil {
			return err
		}
		live[useShm] = rep.Duration
		version++
	}
	fmt.Printf("live 16-leaf cluster, %d rows: shm rollover %v, disk rollover %v (%.1fx)\n",
		*rowsFlag, live[true].Round(time.Millisecond), live[false].Round(time.Millisecond),
		live[false].Seconds()/live[true].Seconds())

	// Paper-scale simulation.
	p := sim.DefaultParams()
	simShm, simDisk := p.SimulateRollover(true), p.SimulateRollover(false)
	fmt.Printf("simulated 100x8 cluster at 2%%/batch: shm %s, disk %s (%.1fx)\n",
		sim.FormatDuration(simShm.Total), sim.FormatDuration(simDisk.Total),
		simDisk.Total.Seconds()/simShm.Total.Seconds())
	fmt.Println("paper: under an hour with shared memory (incl. ~40 min deployment overhead) vs 10-12 hours from disk")
	return nil
}

// ---- E4: Figure 8 dashboard / availability ----

func runE4() error {
	p := sim.DefaultParams()
	rep := p.SimulateRollover(true)
	fmt.Printf("%10s %8s %8s %8s %10s\n", "elapsed", "old", "rolling", "new", "available")
	step := len(rep.Timeline) / 8
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(rep.Timeline); i += step {
		pt := rep.Timeline[i]
		fmt.Printf("%10s %8d %8d %8d %9.1f%%\n",
			sim.FormatDuration(pt.Elapsed), pt.OldVersion, pt.RollingOver, pt.NewVersion, 100*pt.Available)
	}
	fmt.Printf("min availability %.1f%%, mean %.2f%% (paper/Figure 8: 98%% of data stays available)\n",
		100*rep.MinAvailability, 100*rep.MeanAvailability)
	return nil
}

// ---- E5: weekly availability ----

func runE5() error {
	p := sim.DefaultParams()
	disk := p.SimulateRollover(false).Total
	mem := p.SimulateRollover(true).Total
	fmt.Printf("%-22s %14s %22s\n", "path", "rollover", "weekly full availability")
	fmt.Printf("%-22s %14s %21.1f%%\n", "disk recovery", sim.FormatDuration(disk), 100*sim.WeeklyFullAvailability(disk))
	fmt.Printf("%-22s %14s %21.1f%%\n", "shared memory", sim.FormatDuration(mem), 100*sim.WeeklyFullAvailability(mem))
	fmt.Println("paper: 93% -> 99.5%")
	return nil
}

// ---- E6: restart parallelism ----

func runE6() error {
	fmt.Println("live measurement: restart k loaded leaves concurrently in one process")
	fmt.Printf("%4s %16s %18s\n", "k", "wall time", "per-leaf mean")
	for _, k := range []int{1, 2, 4, 8} {
		b, cleanup := newBench()
		leaves := make([]*scuba.Leaf, k)
		for i := range leaves {
			l, err := b.newLeaf(i)
			if err != nil {
				cleanup()
				return err
			}
			if _, err := loadLeaf(l, *rowsFlag/4); err != nil {
				cleanup()
				return err
			}
			if _, err := l.Shutdown(); err != nil {
				cleanup()
				return err
			}
			leaves[i] = l
		}
		start := time.Now()
		var wg sync.WaitGroup
		var totalNs atomic.Int64
		for i := 0; i < k; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				l, err := b.newLeaf(i)
				if err != nil {
					panic(err)
				}
				totalNs.Add(int64(l.Recovery().Duration))
			}(i)
		}
		wg.Wait()
		wall := time.Since(start)
		fmt.Printf("%4d %16v %18v\n", k, wall.Round(time.Millisecond),
			(time.Duration(totalNs.Load()) / time.Duration(k)).Round(time.Millisecond))
		cleanup()
	}

	p := sim.DefaultParams()
	fmt.Println("\nsimulated at paper scale (per-leaf restart time):")
	fmt.Printf("%4s %22s %22s\n", "k", "k leaves, 1 machine", "k leaves, k machines")
	for _, k := range []int{1, 2, 4, 8} {
		same, spread := p.ParallelismSweep(true, k)
		fmt.Printf("%4d %22s %22s\n", k, sim.FormatDuration(same), sim.FormatDuration(spread))
	}
	fmt.Println("paper: restarting one leaf per machine gives each leaf the full machine's bandwidth (§2, §6)")
	return nil
}

// ---- E7: compression ----

func runE7() error {
	// Per-column detail on the service-log table, then totals for every
	// workload table (overall ratio depends on workload entropy; the paper's
	// ~30x is on production data dominated by low-cardinality columns).
	if err := compressionDetail(workload.ServiceLogs(42, 1700000000)); err != nil {
		return err
	}
	fmt.Printf("\n%-16s %12s %12s %8s\n", "table", "raw", "encoded", "ratio")
	for _, gen := range []*workload.Generator{
		workload.ServiceLogs(42, 1700000000),
		workload.ErrorEvents(42, 1700000000),
		workload.AdsRevenue(42, 1700000000),
	} {
		raw, enc, err := compressionTotals(gen)
		if err != nil {
			return err
		}
		fmt.Printf("%-16s %12d %12d %7.1fx\n", gen.Table, raw, enc, float64(raw)/float64(enc))
	}
	fmt.Println("paper: compression reduces row block columns by a factor of about 30, >=2 methods per column")
	return nil
}

func sealFullBlock(gen *workload.Generator) (*rowblock.RowBlock, error) {
	builder := rowblock.NewBuilder(1700000000)
	bt, err := rowblock.FromRows(gen.NextBatch(rowblock.MaxRows))
	if err != nil {
		return nil, err
	}
	if _, err := builder.AppendBatch(bt); err != nil {
		return nil, err
	}
	return builder.Seal()
}

// columnRawSize computes an honest uncompressed size for one column.
func columnRawSize(rb *rowblock.RowBlock, i int) (int64, error) {
	f := rb.Schema()[i]
	switch f.Type {
	case layout.TypeInt64, layout.TypeTime, layout.TypeFloat64:
		return int64(rb.Rows() * 8), nil
	}
	col, err := column.Decode(rb.Column(i))
	if err != nil {
		return 0, err
	}
	var rawSize int64
	switch c := col.(type) {
	case *column.StringColumn:
		for j := 0; j < c.Len(); j++ {
			rawSize += int64(len(c.Value(j)))
		}
	case *column.StringSetColumn:
		err = c.Each(func(_ int, ids []uint32) error {
			for _, id := range ids {
				rawSize += int64(len(c.Dict[id])) + 1
			}
			return nil
		})
	}
	return rawSize, err
}

func compressionDetail(gen *workload.Generator) error {
	rb, err := sealFullBlock(gen)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %-10s %-16s %12s %12s %8s\n", "column", "type", "pipeline", "raw", "encoded", "ratio")
	var rawTotal, encTotal int64
	for i, f := range rb.Schema() {
		rbc := rb.Column(i)
		rawSize, err := columnRawSize(rb, i)
		if err != nil {
			return err
		}
		enc := int64(rbc.Size())
		rawTotal += rawSize
		encTotal += enc
		fmt.Printf("%-14s %-10s %-16s %12d %12d %7.1fx\n",
			f.Name, f.Type, rbc.Code(), rawSize, enc, float64(rawSize)/float64(enc))
	}
	fmt.Printf("%-14s %-10s %-16s %12d %12d %7.1fx\n", "TOTAL", "", "", rawTotal, encTotal,
		float64(rawTotal)/float64(encTotal))
	return nil
}

func compressionTotals(gen *workload.Generator) (raw, enc int64, err error) {
	rb, err := sealFullBlock(gen)
	if err != nil {
		return 0, 0, err
	}
	for i := range rb.Schema() {
		rawSize, err := columnRawSize(rb, i)
		if err != nil {
			return 0, 0, err
		}
		raw += rawSize
		enc += int64(rb.Column(i).Size())
	}
	return raw, enc, nil
}

// ---- E8: columnar disk format ----

func runE8() error {
	fmt.Printf("%-14s %14s %14s %10s\n", "disk format", "backup write", "recovery", "speedup")
	b, cleanup := newBench()
	defer cleanup()
	l, err := b.newLeaf(0)
	if err != nil {
		return err
	}
	if _, err := loadLeaf(l, *rowsFlag); err != nil {
		return err
	}
	// Row format, the paper's: the bench-only codec over the leaf's blocks.
	tr, err := translateRowFormat(filepath.Join(b.dir, "rowformat"), l)
	if err != nil {
		return err
	}
	rowDur := tr.read + tr.translate
	fmt.Printf("%-14s %14v %14v %10s\n", "row", tr.write.Round(time.Millisecond), rowDur.Round(time.Millisecond), "-")
	// Block images, the only format the store keeps: a clean disk-only
	// shutdown writes them, the restart loads them.
	wStart := time.Now()
	if _, err := l.ShutdownToDisk(); err != nil {
		return err
	}
	writeDur := time.Since(wStart)
	l2, err := b.newLeaf(0)
	if err != nil {
		return err
	}
	rec := l2.Recovery().Duration
	fmt.Printf("%-14s %14v %14v %9.1fx\n", "block image", writeDur.Round(time.Millisecond),
		rec.Round(time.Millisecond), rowDur.Seconds()/rec.Seconds())
	fmt.Println("paper (§6): using the shared memory format as the disk format should speed up disk recovery significantly")
	return nil
}

// ---- E11: query latency ----

func runE11() error {
	b, cleanup := newBench()
	defer cleanup()
	l, err := b.newLeaf(0)
	if err != nil {
		return err
	}
	bytes, err := loadLeaf(l, *rowsFlag*2)
	if err != nil {
		return err
	}
	qs := scuba.NewQueries(5, "service_logs", 1700000000, 1700000000+int64(*rowsFlag/2))
	const n = 50
	var total time.Duration
	var worst time.Duration
	for i := 0; i < n; i++ {
		q := qs.Next()
		start := time.Now()
		if _, err := l.Query(q); err != nil {
			return err
		}
		d := time.Since(start)
		total += d
		if d > worst {
			worst = d
		}
	}
	fmt.Printf("%d mixed queries over %d rows (%s compressed): mean %v, worst %v\n",
		n, *rowsFlag*2, mb(bytes), (total / n).Round(time.Microsecond), worst.Round(time.Microsecond))
	fmt.Println("paper: queries typically run in under a second over GBs of data (§1)")
	return nil
}

// ---- E12: flat footprint ----

func runE12() error {
	b, cleanup := newBench()
	defer cleanup()
	l, err := b.newLeaf(0)
	if err != nil {
		return err
	}
	dataBytes, err := loadLeaf(l, *rowsFlag)
	if err != nil {
		return err
	}
	// Flush the disk backup first so the measurement isolates the
	// heap->shm copy; the disk flush pays the (allocating) row-format
	// translation and normally runs in the background long before a
	// planned shutdown.
	if _, err := l.SyncToDisk(); err != nil {
		return err
	}

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	// Sample heap usage while the shutdown copies column by column.
	var peak atomic.Uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak.Load() {
					peak.Store(ms.HeapAlloc)
				}
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	if _, err := l.Shutdown(); err != nil {
		return err
	}
	close(stop)
	<-done

	growth := int64(peak.Load()) - int64(before.HeapAlloc)
	fmt.Printf("resident data %s; heap before shutdown %s; peak growth during copy %s (%.0f%% of data)\n",
		mb(dataBytes), mb(int64(before.HeapAlloc)), mb(growth),
		100*float64(growth)/float64(dataBytes))
	fmt.Println("paper: copying one row block column at a time keeps the total memory footprint nearly unchanged (§4.4)")
	return nil
}

// ---- E13: batch-fraction tradeoff ----

// runE13 sweeps the restart batch fraction in the paper-scale model: larger
// batches finish sooner but take more data offline at once, and once the
// batch no longer fits one-leaf-per-machine, contention makes every batch
// slower too. The paper's 2% sits on the knee of this curve.
func runE13() error {
	fmt.Printf("%8s | %12s %12s | %14s %14s\n",
		"batch", "shm total", "disk total", "min available", "weekly full")
	for _, frac := range []float64{0.005, 0.01, 0.02, 0.05, 0.10, 0.25} {
		p := sim.DefaultParams()
		p.BatchFraction = frac
		// Allow co-location for big batches so the sweep shows the
		// bandwidth-contention penalty, not just an orchestrator clamp.
		p.MaxPerMachine = p.LeavesPerMachine
		shm := p.SimulateRollover(true)
		dsk := p.SimulateRollover(false)
		fmt.Printf("%7.1f%% | %12s %12s | %13.1f%% %13.1f%%\n",
			frac*100,
			sim.FormatDuration(shm.Total), sim.FormatDuration(dsk.Total),
			100*shm.MinAvailability, 100*sim.WeeklyFullAvailability(shm.Total))
	}
	fmt.Println("paper: \"typically, we restart 2% of the leaf servers at a time\" (§4.5)")
	return nil
}

// ---- E14: restart copy worker sweep ----

// loadLeafTables spreads the workload over many tables so the restart copy
// pool has independent units of work.
func loadLeafTables(l *scuba.Leaf, tables, rowsPerTable int) (int64, error) {
	for t := 0; t < tables; t++ {
		gen := scuba.ServiceLogs(int64(t+1), 1700000000)
		name := fmt.Sprintf("service_logs_%02d", t)
		const batch = 10000
		for sent := 0; sent < rowsPerTable; sent += batch {
			n := batch
			if sent+n > rowsPerTable {
				n = rowsPerTable - sent
			}
			if err := l.AddRows(name, gen.NextBatch(n)); err != nil {
				return 0, err
			}
		}
	}
	if err := l.SealAll(); err != nil {
		return 0, err
	}
	return l.Stats().Bytes, nil
}

// runE14 sweeps GOMAXPROCS — the restart pool's size — over a multi-table leaf
// and reports one full shutdown+restore cycle per pool size, with the slowest
// table of each half (the critical path a wider pool hides).
func runE14() error {
	const tables = 16
	rowsPerTable := *rowsFlag / tables
	fmt.Printf("%8s | %12s %12s | %12s %12s | %8s | %s\n",
		"workers", "shutdown", "restore", "cycle", "data", "speedup", "slowest table out/in")
	var base time.Duration
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	for _, workers := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(workers)
		b, cleanup := newBench()
		cfg := b.leafConfig(0)
		if err := os.MkdirAll(filepath.Join(b.dir, "shm"), 0o755); err != nil {
			cleanup()
			return err
		}
		l, err := scuba.NewLeaf(cfg)
		if err != nil {
			cleanup()
			return err
		}
		if err := l.Start(); err != nil {
			cleanup()
			return err
		}
		bytes, err := loadLeafTables(l, tables, rowsPerTable)
		if err != nil {
			cleanup()
			return err
		}
		if _, err := l.SyncToDisk(); err != nil {
			cleanup()
			return err
		}
		sinfo, err := l.Shutdown()
		if err != nil {
			cleanup()
			return err
		}
		nu, err := scuba.NewLeaf(cfg)
		if err != nil {
			cleanup()
			return err
		}
		if err := nu.Start(); err != nil {
			cleanup()
			return err
		}
		rec := nu.Recovery()
		if rec.Path != scuba.RecoveryMemory {
			cleanup()
			return fmt.Errorf("e14: recovery = %v", rec.Path)
		}
		cycle := sinfo.Duration + rec.Duration
		if workers == 1 {
			base = cycle
		}
		fmt.Printf("%8d | %12v %12v | %12v %12s | %7.2fx | %v / %v\n",
			workers, sinfo.Duration.Round(time.Millisecond), rec.Duration.Round(time.Millisecond),
			cycle.Round(time.Millisecond), mb(bytes), base.Seconds()/cycle.Seconds(),
			sinfo.PerTable.Slowest().Duration.Round(time.Millisecond),
			rec.PerTable.Slowest().Duration.Round(time.Millisecond))
		cleanup()
	}
	fmt.Printf("note: %d CPUs; true parallel speedup needs as many cores as workers — past that the pool only overlaps blocking I/O\n",
		runtime.NumCPU())
	return nil
}

func mb(b int64) string { return fmt.Sprintf("%.1f MB", float64(b)/(1<<20)) }

// ---- E16: query p99 during a hung-leaf brownout ----

// runE16 measures what the per-leaf query deadline buys: with 5% of leaves
// hung (injected SiteLeafQuery delay), an aggregator with no deadline drags
// every query's tail out to the hang, while a deadlined aggregator abandons
// the stragglers, keeps p99 near the healthy baseline, and reports the
// missing 5% honestly through coverage — the paper's availability posture
// (partial results over stuck queries) applied to query serving.
func runE16() error {
	const (
		leaves   = 20
		hungFrac = 0.05 // 1 of 20
		queries  = 40
		hang     = 300 * time.Millisecond
		deadline = 50 * time.Millisecond
	)
	rowsPerLeaf := *rowsFlag / (10 * leaves)
	if rowsPerLeaf < 500 {
		rowsPerLeaf = 500
	}
	b, cleanup := newBench()
	defer cleanup()
	defer fault.Reset()

	targets := make([]aggregator.LeafTarget, leaves)
	for i := 0; i < leaves; i++ {
		l, err := b.newLeaf(i)
		if err != nil {
			return err
		}
		if _, err := loadLeaf(l, rowsPerLeaf); err != nil {
			return err
		}
		targets[i] = l
	}
	agg := aggregator.New(targets)
	q := &scuba.Query{Table: "service_logs", From: 0, To: 1 << 40,
		Aggregations: []scuba.Aggregation{{Op: scuba.AggCount}}}

	measure := func(label string) error {
		durs := make([]time.Duration, 0, queries)
		coverage := 0.0
		for i := 0; i < queries; i++ {
			t0 := time.Now()
			res, err := agg.Query(q)
			if err != nil {
				return err
			}
			durs = append(durs, time.Since(t0))
			coverage += res.Coverage()
		}
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		p50 := durs[len(durs)/2]
		p99 := durs[len(durs)*99/100]
		fmt.Printf("%-34s p50=%9v p99=%9v coverage=%5.1f%%\n", label,
			p50.Round(100*time.Microsecond), p99.Round(100*time.Microsecond),
			100*coverage/float64(queries))
		return nil
	}

	hungLeaves := int(hungFrac * leaves)
	agg.LeafTimeout = 0
	if err := measure("healthy, no deadline"); err != nil {
		return err
	}
	for i := 0; i < hungLeaves; i++ {
		fault.Arm(fault.Point{Site: fault.PerLeaf(fault.SiteLeafQuery, i),
			Action: fault.ActDelay, Delay: hang})
	}
	if err := measure(fmt.Sprintf("%d%% hung, no deadline", int(hungFrac*100))); err != nil {
		return err
	}
	agg.LeafTimeout = deadline
	if err := measure(fmt.Sprintf("%d%% hung, %v deadline", int(hungFrac*100), deadline)); err != nil {
		return err
	}
	fault.Reset()
	if err := measure("recovered, deadline kept"); err != nil {
		return err
	}
	fmt.Printf("paper: partial results keep Scuba available while leaves restart; the deadline\n" +
		"extends that posture to hung leaves (coverage reports what was abandoned)\n")
	return nil
}
