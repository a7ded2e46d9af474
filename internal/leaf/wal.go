package leaf

// Crash-path parity (ROADMAP "Crash-path parity: WAL + incremental columnar
// snapshots"). Clean restarts ride shared memory; before this file, a crash
// paid the full row-format disk translate — minutes instead of seconds. Now
// every acked ingest batch is group-committed to a per-table write-ahead
// log first, sealed blocks are periodically written once as columnar RBK2
// snapshot images, and crash recovery becomes: load snapshot images + replay
// the WAL tail, fanned across tables on the same bounded worker pool the shm
// restore uses. Per-table failures (gap, corruption, quarantine) degrade
// that one table to the old disk translate; the rest still recover fast.
//
// Invariant: while a table is unquarantined, its WAL cursor equals its
// cumulative accepted-row count (sealed + unsealed), because addBatch appends
// to the WAL before applying to the table and a rejected batch quarantines
// the table. Record row indexes are therefore exact, which is what lets
// replay slice records that straddle the snapshot watermark.
//
// Known window: after a non-WAL restore (clean shm restart, disk recovery)
// the old log no longer matches memory, so it is reset and the watermark
// starts over at the restored row count with no images below it. Until the
// first snapshot pass images the restored blocks, a crash falls back to the
// disk translate for pre-restore rows — the pre-WAL durability model — and
// the post-restore WAL tail replays only if the disk backup happens to align
// (it is discarded otherwise, since disk expiry renumbers rows). The
// maintenance loop closes this window within one SnapshotInterval.

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"scuba/internal/obs"
	"scuba/internal/rowblock"
	"scuba/internal/table"
	"scuba/internal/wal"
)

// walTableResult is one table's crash-recovery outcome.
type walTableResult struct {
	stat TableCopyStat
	path TableRecovery
	// info accumulates per-worker so workers never share the caller's
	// RecoveryInfo; merged after the pool drains.
	info RecoveryInfo
}

// recoverCrash restores every table after an unclean exit: WAL tables via
// snapshot images + log replay in parallel, disk-only tables (and WAL
// failures) via the row-format translate. Sets info.Path.
func (l *Leaf) recoverCrash(info *RecoveryInfo) error {
	if l.wal == nil || !l.wal.HasState() {
		if err := l.recoverFromDisk(info); err != nil {
			return err
		}
		if info.Blocks > 0 {
			info.Path = RecoveryDisk
		}
		return nil
	}

	walTables, err := l.wal.Tables()
	if err != nil {
		return err
	}
	var diskTables []string
	if l.store != nil {
		if diskTables, err = l.store.Tables(); err != nil {
			return err
		}
	}
	seen := make(map[string]bool)
	var names []string
	for _, n := range append(walTables, diskTables...) {
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	sort.Strings(names)
	hasWAL := make(map[string]bool, len(walTables))
	for _, n := range walTables {
		hasWAL[n] = true
	}

	workers := l.copyWorkers(len(names))
	info.Workers = workers
	results := make([]walTableResult, len(names))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				results[idx] = l.recoverTableCrash(names[idx], hasWAL[names[idx]])
			}
		}()
	}
	for i := range names {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	walCount, diskCount := 0, 0
	for _, r := range results {
		info.Tables += r.info.Tables
		info.Blocks += r.info.Blocks
		info.BytesRestored += r.info.BytesRestored
		info.WALRecords += r.info.WALRecords
		info.WALRowsReplayed += r.info.WALRowsReplayed
		info.SnapshotBlocks += r.info.SnapshotBlocks
		if r.stat.Table != "" {
			info.PerTable = append(info.PerTable, r.stat)
		}
		info.PerTablePath = append(info.PerTablePath, r.path)
		switch r.path.Path {
		case RecoveryWAL:
			walCount++
		case RecoveryDisk:
			diskCount++
		}
	}
	sort.Slice(info.PerTable, func(i, j int) bool { return info.PerTable[i].Table < info.PerTable[j].Table })
	sort.Slice(info.PerTablePath, func(i, j int) bool { return info.PerTablePath[i].Table < info.PerTablePath[j].Table })
	switch {
	case walCount > 0 && diskCount == 0:
		info.Path = RecoveryWAL
	case walCount > 0:
		info.Path = RecoveryMixed
	case diskCount > 0:
		info.Path = RecoveryDisk
	}
	return nil
}

// recoverTableCrash brings one table back: snapshots + replay when the WAL
// covers it, the disk translate otherwise (quarantined log, gap between
// watermark and log tail, corruption — each a per-table degradation, never
// a whole-leaf failure).
func (l *Leaf) recoverTableCrash(name string, hasWAL bool) walTableResult {
	res := walTableResult{path: TableRecovery{Table: name, Path: RecoveryDisk}}
	if hasWAL && !l.wal.Quarantined(name) {
		st, err := l.recoverTableFromWAL(name, &res.info)
		if err == nil {
			res.stat = st
			res.path.Path = RecoveryWAL
			return res
		}
		l.cfg.Obs.Event(obs.EventFail, "restart.wal_fallback",
			fmt.Sprintf("table %q: WAL recovery failed, taking the disk translate: %v", name, err))
		res.path.Reason = err.Error()
		// Discard the half-restored table before the disk translate installs
		// a fresh one.
		l.mu.Lock()
		delete(l.tables, name)
		l.mu.Unlock()
	} else if hasWAL {
		res.path.Reason = "wal quarantined"
	}
	sp := l.cfg.Obs.Start(obs.PhaseDiskRecovery)
	derr := l.recoverTableFromDisk(name, &res.info)
	sp.End(derr)
	if derr != nil {
		res.path.Path = RecoveryNone
		if res.path.Reason != "" {
			res.path.Reason += "; "
		}
		res.path.Reason += "disk reload failed: " + derr.Error()
		l.cfg.Obs.Event(obs.EventFail, "restart.wal_fallback",
			fmt.Sprintf("table %q lost: disk reload failed: %v", name, derr))
		return res
	}
	res.info.Tables++
	return res
}

// recoverTableFromWAL loads a table's snapshot images, replays the log tail
// through the function live ingest applies batches with (Table.AddBatch),
// and reconciles the log cursor and the (now stale) disk backup. The table
// serves queries with partial results while it loads, exactly like the disk
// path.
func (l *Leaf) recoverTableFromWAL(name string, info *RecoveryInfo) (TableCopyStat, error) {
	st := TableCopyStat{Table: name}
	begin := time.Now()
	tbl := table.NewRecovering(name, l.cfg.Table)
	if err := tbl.Transition(table.StateDiskRecovery); err != nil {
		return st, err
	}
	l.mu.Lock()
	l.tables[name] = tbl
	l.mu.Unlock()
	l.attachCache(name, tbl)

	snapBlocks := 0
	w, err := l.wal.LoadSnapshots(name, func(rb *rowblock.RowBlock, start int64) error {
		if err := tbl.RestoreBlockAt(rb, start); err != nil {
			return err
		}
		snapBlocks++
		st.Blocks++
		st.Bytes += rb.Header().Size
		return nil
	})
	if err != nil {
		return st, fmt.Errorf("snapshots: %w", err)
	}
	// With zero images (retention expired them all) the watermark alone
	// carries the table's row base; align sealedEnd so replayed rows seal at
	// their true global indexes. No-op when images were loaded.
	tbl.AlignSealedEnd(w)
	tbl.MarkSnapshottedThrough(w)
	info.SnapshotBlocks += snapBlocks
	info.Blocks += snapBlocks
	info.BytesRestored += st.Bytes

	recs, rows, pos, err := l.wal.ReplayFrom(name, w, func(b *rowblock.Batch) error {
		return tbl.AddBatch(b, l.cfg.Clock())
	})
	if err != nil {
		return st, fmt.Errorf("replay: %w", err)
	}
	info.WALRecords += recs
	info.WALRowsReplayed += rows
	info.Tables++
	if err := l.wal.SetCursor(name, pos); err != nil {
		return st, err
	}
	// The disk backup predates the crash and may be missing recently sealed
	// blocks; a plain re-sync would append fresh blocks after the stale ones
	// and duplicate rows. Wipe it — the restored blocks are deliberately
	// unsynced, so the next sync pass rewrites a complete backup.
	if l.store != nil {
		if err := l.store.RemoveTable(name); err != nil {
			return st, err
		}
	}
	st.Duration = time.Since(begin)
	return st, nil
}

// reconcileWAL runs at the end of every Start: tables that did NOT recover
// via the WAL (shm restore, disk translate, fresh) no longer match their old
// log, so each such table's log and snapshots are reset with the cursor at
// the restored row count. Only then do new appends flow to the log.
func (l *Leaf) reconcileWAL(info *RecoveryInfo) error {
	walRecovered := make(map[string]bool)
	for _, tr := range info.PerTablePath {
		if tr.Path == RecoveryWAL {
			walRecovered[tr.Table] = true
		}
	}
	walTables, err := l.wal.Tables()
	if err != nil {
		return err
	}
	seen := make(map[string]bool)
	names := append(walTables, l.Tables()...)
	for _, name := range names {
		if seen[name] || walRecovered[name] {
			continue
		}
		seen[name] = true
		var next int64
		if tbl := l.Table(name); tbl != nil {
			s := tbl.Stats()
			next = tbl.SealedEnd() + int64(s.Unsealed)
		}
		if err := l.wal.ResetTable(name, next); err != nil {
			return err
		}
	}
	l.walReady.Store(true)
	return nil
}

// SnapshotPass writes every sealed-but-unsnapshotted block as a snapshot
// image, advances the watermark, and truncates WAL segments the snapshots
// now cover. The maintenance loop calls it on SnapshotInterval; benchmarks
// and tests call it directly for deterministic coverage.
func (l *Leaf) SnapshotPass() (int, error) {
	if l.wal == nil {
		return 0, nil
	}
	written := 0
	for _, tbl := range l.tablesSorted() {
		name := tbl.Name()
		if l.wal.Quarantined(name) {
			continue
		}
		blocks, starts := tbl.UnsnappedBlocks()
		for i, rb := range blocks {
			if err := l.wal.WriteSnapshot(name, rb, starts[i]); err != nil {
				return written, err
			}
			tbl.MarkSnapshottedThrough(starts[i] + int64(rb.Rows()))
			written++
		}
		if len(blocks) == 0 {
			continue
		}
		last := len(blocks) - 1
		w := starts[last] + int64(blocks[last].Rows())
		if err := l.wal.SaveWatermark(name, w); err != nil {
			return written, err
		}
		if _, err := l.wal.Truncate(name, w); err != nil {
			return written, err
		}
	}
	return written, nil
}

// WAL returns the leaf's write-ahead log (nil when disabled); tests and the
// bench harness reach through for assertions.
func (l *Leaf) WAL() *wal.Log { return l.wal }
