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
)

// ingest_fresh is writes beside reads: rows stamped with a rising seq go
// scribe bus -> tailer -> placer -> wire -> WAL leaf, first as fast as the
// pipeline takes them (phase A, closed loop: append a chunk, drain it), then
// at a fixed rate (phase B, open loop: bursts sent on a schedule whether or
// not the last one landed). One reader alternates a window query on the
// newest rows with a max(seq) query; the lag of an answer is its reply time
// minus the due time of the burst that seq belongs to. SnapshotPass and
// SyncToDisk fire on a row-count cadence in the background. It is the only
// workload where tailer, wire ingest, WAL and seal carry the load.

// placed is one acked batch as the placer's target saw it.
type placed struct {
	maxSeq     int64
	start, end time.Time
}

// ingestTarget is the placer's view of one leaf: a DialLeaf client, wrapped
// so the benchmark learns when each batch was acked. The wrapper is the same
// in traced and untraced runs.
type ingestTarget struct {
	r   *run
	idx int
	cl  *scuba.Client
	st  *ingestState
}

// ingestState is what the generator, the targets and the reader share.
type ingestState struct {
	appended atomic.Int64 // highest seq handed to the bus
	acked    atomic.Int64 // highest seq a leaf has acked
	ackedN   atomic.Int64 // rows acked
	addNanos atomic.Int64 // time inside Client.AddRows
	maint    chan struct{}
	every    int64

	mu      sync.Mutex
	batches []placed
}

func (t *ingestTarget) Stats() (scuba.LeafStats, error) { return t.cl.Stats() }

func (t *ingestTarget) AddRows(table string, rows []scuba.Row) error {
	start := time.Now()
	err := t.cl.AddRows(table, rows)
	end := time.Now()
	if err != nil {
		return err
	}
	st := t.st
	st.addNanos.Add(int64(end.Sub(start)))
	t.r.oracle.add(t.idx, table, rows)
	top := rows[len(rows)-1].Cols["seq"].Int
	st.mu.Lock()
	st.batches = append(st.batches, placed{top, start, end})
	st.mu.Unlock()
	st.acked.Store(top)
	before := st.ackedN.Add(int64(len(rows))) - int64(len(rows))
	if (before+int64(len(rows)))/st.every > before/st.every {
		select {
		case st.maint <- struct{}{}:
		default: // a pass is already pending
		}
	}
	return nil
}

// batchFor finds the acked batch that carried seq.
func (st *ingestState) batchFor(seq int64) (placed, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	i := sort.Search(len(st.batches), func(i int) bool { return st.batches[i].maxSeq >= seq })
	if i == len(st.batches) {
		return placed{}, false
	}
	return st.batches[i], true
}

// background is the snapshot-and-sync work of one maintenance pass, with the
// megabytes each half wrote.
type background struct {
	snapMs, snapMB float64
	syncMs, syncMB float64
}

// maintain runs one SnapshotPass + SyncToDisk over the nodes.
func (r *run) maintain(nodes []*node, bg *background) error {
	w := r.tr.root("maintenance")
	defer w.end()
	walDir, diskDir := filepath.Join(r.dir, "wal"), filepath.Join(r.dir, "disk")
	for _, n := range nodes {
		before := dirBytes(walDir, "snap-")
		sp := w.child("wal.snapshot")
		t0 := time.Now()
		_, err := n.leaf.SnapshotPass()
		bg.snapMs += ms(time.Since(t0))
		sp.end()
		if err != nil {
			return err
		}
		bg.snapMB += float64(dirBytes(walDir, "snap-")-before) / (1 << 20)

		before = dirBytes(diskDir, "")
		sp = w.child("disk.sync")
		t0 = time.Now()
		_, err = n.leaf.SyncToDisk()
		bg.syncMs += ms(time.Since(t0))
		sp.end()
		if err != nil {
			return err
		}
		bg.syncMB += float64(dirBytes(diskDir, "")-before) / (1 << 20)
	}
	return nil
}

func ingestFresh(r *run) (*measures, error) {
	m := newMeasures()
	sz := r.sz
	satRows := sz.IngestSatRowsPerSecond * r.seconds
	openFor := time.Duration(float64(r.seconds) * ingestOpenShare * float64(time.Second))
	interval := time.Second * time.Duration(sz.IngestBurstRows) / time.Duration(sz.IngestOpenRowsPerSec)
	bursts := int(openFor / interval)
	total := satRows + bursts*sz.IngestBurstRows

	nodes := []*node{r.newNode(0, true), r.newNode(1, true)}
	for _, n := range nodes {
		if err := n.start(r, false, nil); err != nil {
			return nil, err
		}
	}
	c, err := r.serve(nodes)
	if err != nil {
		return nil, err
	}
	defer c.close()

	// The pool: every row generated, stamped and encoded before timing.
	rows := make([]scuba.Row, 0, total)
	payloads := make([][]byte, 0, total)
	var encode time.Duration
	for i := 0; i < setupRounds; i++ {
		err := r.setup.round(func() error {
			part := r.gen.stamped(share(total, i, setupRounds))
			rows = append(rows, part...)
			encStart := time.Now()
			for _, row := range part {
				b, err := scuba.EncodeRow(row)
				if err != nil {
					return err
				}
				payloads = append(payloads, b)
			}
			encode += time.Since(encStart)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	// firstSeqAt returns the first seq whose event time is at least t.
	firstSeqAt := func(t int64) int64 {
		return int64(sort.Search(total, func(i int) bool { return rows[i].Time >= t })) + 1
	}

	st := &ingestState{maint: make(chan struct{}, 1), every: int64(sz.IngestSnapshotEvery)}
	targets := make([]scuba.PlacerTarget, len(nodes))
	for i, n := range nodes {
		cl := scuba.DialLeaf(n.addr)
		defer cl.Close()
		targets[i] = &ingestTarget{r: r, idx: i, cl: cl, st: st}
	}
	bus := scuba.NewBus(0)
	var tailReg *scuba.MetricsRegistry
	if r.traced() {
		tailReg = scuba.NewMetricsRegistry()
	}
	tl := scuba.NewTailer(scuba.TailerConfig{
		Category: tableLogs, Table: tableLogs, BatchRows: loadBatchRows,
		FlushInterval: ingestFlushInterval, Metrics: tailReg,
	}, bus, scuba.NewPlacer(targets, r.seed), 0)

	// Background snapshot + sync, woken on the row-count cadence.
	var bg background
	maintDone := make(chan error, 1)
	go func() {
		var first error
		for range st.maint {
			if err := r.maintain(nodes, &bg); err != nil && first == nil {
				first = err
			}
		}
		maintDone <- first
	}()

	// The reader: window query, then max(seq), over the newest
	// newestWindowSeconds of event time.
	reader := scuba.DialLeaf(c.agg.Addr())
	defer reader.Close()
	var winLat, allLat, lagP series
	var phaseB atomic.Bool
	dueAt := make([]time.Time, bursts)
	stopReader := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stopReader:
				return
			default:
			}
			top := st.appended.Load()
			if top == 0 {
				time.Sleep(time.Millisecond)
				continue
			}
			from := alignDown(rows[top-1].Time) - newestWindowSeconds
			s0 := firstSeqAt(from)

			lower := st.acked.Load() - s0 + 1
			q := windowQuery(from, 1<<40)
			t0 := time.Now()
			res, full := r.query(reader, q)
			d := time.Since(t0)
			upper := st.appended.Load() - s0 + 1
			if res != nil {
				allLat.add(d)
				winLat.add(d)
				if !full {
					r.fail("ingest_fresh: partial answer with every leaf up")
				}
				r.checkCount(windowTotal(q, res), lower, upper, full, upper > lower)
			}

			floor := st.acked.Load()
			q = maxSeqQuery(from)
			t0 = time.Now()
			res, full = r.query(reader, q)
			t1 := time.Now()
			if res == nil {
				continue
			}
			allLat.add(t1.Sub(t0))
			// Every row acked before the query began must be visible; no row
			// can be visible before it was appended. (With no acked row in
			// the window yet, an empty answer is right.)
			seq, ceil := int64(singleValue(q, res)), st.appended.Load()
			if !full || seq > ceil || (floor >= s0 && seq < floor) {
				r.fail("ingest_fresh: max(seq) %d outside [%d, %d] (full=%v)", seq, floor, ceil, full)
				continue
			}
			if b := (int(seq) - satRows - 1) / sz.IngestBurstRows; phaseB.Load() && seq > int64(satRows) && b < bursts {
				lagP.add(t1.Sub(dueAt[b]))
				if pb, ok := st.batchFor(seq); ok {
					cuts := []time.Time{dueAt[b], pb.start, pb.end, t0, t1}
					for i := 1; i < len(cuts); i++ {
						if cuts[i].Before(cuts[i-1]) {
							cuts[i] = cuts[i-1]
						}
					}
					r.tr.windowAt("fresh.lag", []string{"tailer.queue", "wire.addrows", "reader.wait", "aggregator.query"}, cuts)
				}
			}
		}
	}()
	// stopBackground ends the reader and the maintenance loop, once, on every
	// way out; nothing may still be placing rows when it runs.
	var stopOnce sync.Once
	var maintErr error
	stopBackground := func() {
		stopOnce.Do(func() {
			close(stopReader)
			<-readerDone
			close(st.maint)
			maintErr = <-maintDone
		})
	}
	defer stopBackground()
	r.setupDone(m)

	// Phase A: saturation. Append a chunk, drain it, repeat until every row
	// is acked.
	var appendNanos, drainNanos int64
	startA := time.Now()
	for off := 0; off < satRows; off += sz.IngestAppendChunk {
		end := min(off+sz.IngestAppendChunk, satRows)
		w := r.tr.window("ingest.chunk")
		sp := w.child("scribe.append")
		t0 := time.Now()
		for i := off; i < end; i++ {
			bus.Append(tableLogs, payloads[i])
		}
		appendNanos += int64(time.Since(t0))
		sp.end()
		st.appended.Store(int64(end))
		sp = w.child("tailer.drain")
		t0 = time.Now()
		n, err := tl.DrainOnce()
		drainNanos += int64(time.Since(t0))
		sp.end()
		w.end()
		r.op(end - off)
		if err != nil {
			return nil, fmt.Errorf("phase A drain: %w", err)
		}
		if n != end-off {
			r.fail("ingest_fresh: drained %d of %d appended rows", n, end-off)
		}
	}
	elapsedA := time.Since(startA)
	ackedA := st.ackedN.Load()

	// Phase B: open loop. Burst i is due at its slot of the schedule and is
	// timed from then, however late the generator runs.
	stopTail := make(chan struct{})
	tailDone := make(chan error, 1)
	go func() { tailDone <- tl.Run(stopTail) }()
	phaseB.Store(true)
	late := openLoop(time.Now, sleepOrStop(nil), time.Now(), interval, bursts, func(b int, due time.Time) {
		dueAt[b] = due
		off := satRows + b*sz.IngestBurstRows
		for i := off; i < off+sz.IngestBurstRows; i++ {
			bus.Append(tableLogs, payloads[i])
		}
		st.appended.Store(int64(off + sz.IngestBurstRows))
		r.op(sz.IngestBurstRows)
	})
	// Two flush intervals of grace, then whatever is still unplaced beyond
	// backlogFlushes flush intervals' worth of rows is a backlog the open loop
	// left behind: those rows failed. (One interval's worth, as first planned,
	// trips on a single late tick of this sandbox's scheduler; a pipeline that
	// cannot keep up is thousands of rows behind by now.)
	time.Sleep(2 * ingestFlushInterval)
	allowed := max(int64(backlogFlushes*float64(sz.IngestOpenRowsPerSec)*ingestFlushInterval.Seconds()), int64(sz.IngestBurstRows))
	if backlog := st.appended.Load() - st.acked.Load(); backlog > allowed {
		r.failed.Add(backlog)
		r.fail("ingest_fresh: %d rows still unplaced at the end of the open loop (allowed %d)", backlog, allowed)
	}
	close(stopTail)
	if err := <-tailDone; err != nil {
		return nil, fmt.Errorf("tailer: %w", err)
	}
	stopBackground()
	if maintErr != nil {
		return nil, fmt.Errorf("maintenance: %w", maintErr)
	}

	// Quiescent: every appended row must be acked and answer exactly.
	if got := st.ackedN.Load(); got != int64(total) {
		r.fail("ingest_fresh: %d rows acked, %d appended", got, total)
	}
	if tl.RowsBad != 0 || tl.RowsLost != 0 {
		r.fail("ingest_fresh: tailer dropped rows (bad %d, lost %d)", tl.RowsBad, tl.RowsLost)
	}
	for i, n := range nodes {
		r.op(1)
		if err := r.leafCounts(n, i, nil); err != nil {
			r.fail("ingest_fresh: %v", err)
		}
	}
	mix := newQueryMix(r.seed+5, epoch, r.gen.now(tableLogs))
	for i := 0; i < 20; i++ {
		for _, class := range []string{classWindow, classFilter} {
			q := mix.query(class)
			if res, full := r.query(reader, q); full {
				r.checkClass(class, q, res)
			}
		}
	}

	m.setE2E("throughput_per_s", float64(ackedA)/elapsedA.Seconds(), int(ackedA))
	m.setE2E("primary_ms", m.report("freshness", lagP), len(lagP))
	m.setE2E("secondary_ms", percentile(lagP, 95), len(lagP))
	m.report("reader.window", winLat)
	m.report("reader", allLat)
	m.setE2E("query_p95_ms", percentile(allLat, 95), len(allLat))
	if err := r.finish(m, nodes, c); err != nil {
		return nil, err
	}
	m.report("gen.late", late)
	m.note("ingest_fresh: phase A %d rows closed loop in %d-row chunks; phase B %d rows/s open loop for %v in %d-row bursts, flush %v; snapshot+sync every %d acked rows; group commit %v",
		satRows, sz.IngestAppendChunk, sz.IngestOpenRowsPerSec, openFor, sz.IngestBurstRows, ingestFlushInterval, sz.IngestSnapshotEvery, walSyncInterval)

	if r.traced() {
		fa := float64(satRows)
		m.setLayer("scribe.append_us_per_row", float64(appendNanos)/1e3/fa, satRows)
		m.setLayer("tailer.encode_us_per_row", float64(encode)/1e3/float64(total), total)
		m.setLayer("tailer.drain_us_per_row", float64(drainNanos)/1e3/fa, satRows)
		m.setLayer("tailer.rows_bad", float64(tl.RowsBad), 0)
		m.setLayer("wire.addrows_us_per_row", float64(st.addNanos.Load())/1e3/float64(total), total)
		probe := min(sz.LayerProbeRows, total)
		t0 := time.Now()
		for _, p := range payloads[:probe] {
			if _, err := scuba.DecodeRow(p); err != nil {
				return nil, err
			}
		}
		m.setLayer("tailer.decode_us_per_row", float64(time.Since(t0))/1e3/float64(probe), probe)
		if bg.snapMB > 0 {
			m.setLayer("wal.snapshot_ms_per_mb", bg.snapMs/bg.snapMB, 0)
		}
		if bg.syncMB > 0 {
			m.setLayer("disk.sync_ms_per_mb", bg.syncMs/bg.syncMB, 0)
		}
		m.setLayer("disk.bytes_per_row", float64(dirBytes(filepath.Join(r.dir, "disk"), ""))/float64(total), 0)
		m.setLayer("wal.dir_bytes_per_row", float64(dirBytes(filepath.Join(r.dir, "wal"), ""))/float64(total), 0)
		m.setLayer("gen.late_p95_ms", percentile(late, 95), len(late))
		m.setLayer("client.probe_p50_ms", median(winLat), len(winLat))
		if err := r.ingestLayerProbes(m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// ingestLayerProbes times the leaf's own ingest path in process on two
// scratch leaves, one with the WAL and one without; their difference is what
// the WAL costs per row.
func (r *run) ingestLayerProbes(m *measures) error {
	n := r.sz.LayerProbeRows
	gen := newDataGen(r.seed + 101)
	var batches [][]scuba.Row
	for left := n; left > 0; left -= loadBatchRows {
		batches = append(batches, gen.batch(tableLogs, min(left, loadBatchRows)))
	}
	perRow := make(map[bool]float64)
	for _, wal := range []bool{true, false} {
		dir, err := os.MkdirTemp(r.dir, "probe-")
		if err != nil {
			return err
		}
		reg := scuba.NewMetricsRegistry()
		cfg := scuba.LeafConfig{ID: 9, Shm: scuba.ShmOptions{Dir: filepath.Join(dir, "shm"), Namespace: "probe"},
			DiskRoot: filepath.Join(dir, "disk"), WALSyncInterval: walSyncInterval,
			DecodeCacheBytes: decodeCacheBytes, MemoryBudget: memoryBudget, Metrics: reg}
		if wal {
			cfg.WALDir = filepath.Join(dir, "wal")
		}
		l, err := scuba.NewLeaf(cfg)
		if err != nil {
			return err
		}
		if err := l.Start(); err != nil {
			return err
		}
		w := r.tr.root("probe.leaf_ingest")
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sp := w.child("leaf.addrows")
		t0 := time.Now()
		for _, b := range batches {
			if err := l.AddRows(tableLogs, b); err != nil {
				return err
			}
		}
		d := time.Since(t0)
		sp.end()
		runtime.ReadMemStats(&after)
		perRow[wal] = float64(d) / 1e3 / float64(n)
		if wal {
			m.setLayer("leaf.addrows_us_per_row", perRow[wal], n)
			m.setLayer("leaf.allocs_per_row", float64(after.Mallocs-before.Mallocs)/float64(n), n)
			snap := reg.Snapshot()
			m.setLayer("wal.fsyncs_per_batch", float64(snap.Counters["wal.fsyncs"])/float64(len(batches)), len(batches))
			m.setLayer("wal.bytes_per_row", float64(dirBytes(cfg.WALDir, ""))/float64(n), n)
			unsealed := l.Stats().Rows % 65536
			sp = w.child("rowblock.seal")
			t0 = time.Now()
			err = l.SealAll()
			d = time.Since(t0)
			sp.end()
			if err != nil {
				return err
			}
			if unsealed > 0 {
				m.setLayer("rowblock.seal_us_per_row", float64(d)/1e3/float64(unsealed), int(unsealed))
			}
			l.WAL().Close() //nolint:errcheck // scratch leaf, discarded
		} else {
			m.setLayer("leaf.addrows_nowal_us_per_row", perRow[wal], n)
		}
		w.end()
	}
	m.setLayer("wal.us_per_row", perRow[true]-perRow[false], n)
	return nil
}
