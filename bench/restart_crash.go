package main

import (
	"fmt"
	"time"

	"scuba"
)

// restart_crash is the unplanned restart. Leaf 0 holds CrashLeaf0Rows with
// the WAL on. Each cycle ingests CrashCycleRows acked rows, with one
// SnapshotPass after the first CrashSnapshotAfter so that the rest are a
// WAL-only tail, then abandons the leaf without Shutdown and starts a new
// incarnation: the recovery path must be "wal" and no acked row may be
// missing. Between those cycles a scratch leaf with no WAL, sealed and synced
// to disk, is abandoned crashDiskCycles times and recovers whichever way Start
// picks (today the row-format disk translate). Snapshot load, WAL replay and disk
// translate do the work here and none in restart_shm.
//
// The abandoned incarnation lives in this process, so the OS page cache
// keeps everything it wrote: this measures recovery time, not whether an
// fsync was honest.

// crashCycle abandons a node and times NewLeaf to the first exact counts.
func (r *run) crashCycle(n *node, idx int, window string) (up, started time.Duration, err error) {
	r.op(1)
	n.abandon()
	exitProcess()
	w := r.tr.window(window)
	defer w.end()
	t0 := time.Now()
	if err := n.start(r, false, w); err != nil {
		return 0, 0, err
	}
	started = time.Since(t0)
	if err := r.leafCounts(n, idx, w); err != nil {
		r.fail("%s: %v", r.workload, err)
	}
	return time.Since(t0), started, nil
}

func restartCrash(r *run) (*measures, error) {
	m := newMeasures()
	sz := r.sz
	nodes := []*node{r.newNode(0, true), r.newNode(1, true), r.newNode(2, false)}
	r.oracle.unserved[2] = true // the scratch leaf is not behind the aggregator
	if err := r.bulkLoad(nodes, planRows([]int{sz.CrashLeaf0Rows, sz.CrashLeaf1Rows, sz.CrashScratchRows})); err != nil {
		return nil, err
	}
	// The restore from the loader reset the logs; image the restored blocks
	// so that the first crash already finds snapshots under its WAL tail.
	for _, n := range nodes[:2] {
		if _, err := n.leaf.SnapshotPass(); err != nil {
			return nil, err
		}
	}
	// The aggregator and its prober see the two WAL leaves only; the scratch
	// leaf's cycles are spread between theirs, so that both kinds of gap are
	// taken over the same stretch of time and of host speed.
	c, err := r.serve(nodes[:2])
	if err != nil {
		return nil, err
	}
	defer c.close()
	defer nodes[2].abandon()
	p := r.startProber(c.agg.Addr(), r.newestWindow())
	defer p.finish()
	r.setupDone(m)

	n := nodes[0]
	cycles := max(int(float64(r.seconds)*sz.CrashCyclesPerSecond), 1)
	var walGap, diskGap, ingestRate series
	layer := map[string][]float64{}
	add := func(name string, v float64) { layer[name] = append(layer[name], v) }

	// One cycle of the WAL-less scratch leaf: a little fresh data, sealed and
	// synced, then abandoned.
	scratch := nodes[2]
	diskCycle := func() error {
		fresh := r.freshRows(sz.CrashDiskCycleRows)
		iw := r.tr.root("cycle.ingest")
		r.cycleIngest(scratch, 2, fresh, nil, iw)
		iw.end()
		if err := scratch.leaf.SealAll(); err != nil {
			return err
		}
		if _, err := scratch.leaf.SyncToDisk(); err != nil {
			return err
		}
		held := scratch.leaf.Stats().Rows
		up, started, err := r.crashCycle(scratch, 2, "crash.recover.disk")
		if err != nil {
			return fmt.Errorf("disk cycle %d: %w", len(diskGap), err)
		}
		diskGap.add(up)
		if r.traced() {
			add("leaf.start_ms.disk", ms(started))
			add("disk.translate_us_per_row", float64(started)/1e3/float64(max(held, 1)))
		}
		m.note("restart_crash: WAL-less cycle %d recovered by %q in %.0f ms", len(diskGap)-1, scratch.leaf.Recovery().Path, ms(up))
		return nil
	}
	// A disk cycle follows every diskEvery-th WAL cycle; what is left of the
	// crashDiskCycles comes after the last one.
	diskEvery := max(cycles/crashDiskCycles, 1)

	for cyc := 0; cyc < cycles; cyc++ {
		head, tail := r.freshRows(sz.CrashSnapshotAfter), r.freshRows(sz.CrashCycleRows-sz.CrashSnapshotAfter)
		iw := r.tr.root("cycle.ingest")
		rows, took := r.cycleIngest(n, 0, head, p, iw)
		sp := iw.child("wal.snapshot")
		_, err := n.leaf.SnapshotPass()
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("cycle %d: snapshot pass: %w", cyc, err)
		}
		rows2, took2 := r.cycleIngest(n, 0, tail, p, iw)
		iw.end()
		ingestRate = append(ingestRate, float64(rows+rows2)/(took+took2).Seconds())
		p.from.Store(r.newestWindow())
		key := fmt.Sprintf("cycle-%d", cyc)
		if err := r.fingerprint(n, key, p.from.Load()); err != nil {
			r.fail("restart_crash: before crash: %v", err)
		}

		up, started, err := r.crashCycle(n, 0, "crash.recover.wal")
		if err != nil {
			return nil, fmt.Errorf("cycle %d: %w", cyc, err)
		}
		walGap.add(up)
		rec := n.leaf.Recovery()
		if rec.Path != scuba.RecoveryWAL {
			r.fail("restart_crash: cycle %d recovered by %q, want %q", cyc, rec.Path, scuba.RecoveryWAL)
		}
		if r.traced() {
			add("leaf.start_ms.wal", ms(started))
			add("wal.replay_rows", float64(rec.WALRowsReplayed))
			add("wal.snapshot_blocks", float64(rec.SnapshotBlocks))
			if rec.WALRowsReplayed > 0 {
				add("wal.replay_us_per_row", phaseTimers(n.reg)("restart.disk_recovery")*1e3/float64(rec.WALRowsReplayed))
			}
		}
		if err := r.fingerprint(n, key, p.from.Load()); err != nil {
			r.fail("restart_crash: after crash: %v", err)
		}
		r.oracle.forget(key)
		if (cyc+1)%diskEvery == 0 && len(diskGap) < crashDiskCycles {
			if err := diskCycle(); err != nil {
				return nil, err
			}
		}
	}
	for len(diskGap) < crashDiskCycles {
		if err := diskCycle(); err != nil {
			return nil, err
		}
	}
	probes := p.finish()
	m.setE2E("primary_ms", m.report("gap.wal", walGap), len(walGap))
	m.setE2E("secondary_ms", m.report("gap.disk", diskGap), len(diskGap))
	m.setE2E("throughput_per_s", median(ingestRate), len(ingestRate))
	m.report("prober", probes)
	m.setE2E("query_p95_ms", percentile(probes, 95), len(probes))
	if err := r.finish(m, nodes, c); err != nil {
		return nil, err
	}
	m.note("restart_crash: %d WAL cycles on a leaf of %d rows (+%d each, snapshot after %d), %d WAL-less cycles on a scratch leaf of %d rows; the abandoned process keeps the OS cache, so this is recovery time, not fsync honesty",
		cycles, sz.CrashLeaf0Rows, sz.CrashCycleRows, sz.CrashSnapshotAfter, crashDiskCycles, sz.CrashScratchRows)

	if r.traced() {
		for name, s := range layer {
			m.setMedian(name, s)
		}
		m.setLayer("client.probe_p50_ms", median(probes), len(probes))
	}
	return m, nil
}
