package leaf

// One recovery loop. Whatever the last process left behind, Start runs the
// same function for every table on one bounded worker pool:
//
//	for each table in (shm segments ∪ store tables ∪ log tables):
//	    take its blocks from shm (copy, or view when InstantOn) if the valid
//	        bit and the segment's CRC allow,
//	    else load its images from the store and replay the log tail past
//	        their watermark if a usable log covers it;
//	    go ALIVE
//
// A fault costs one table one source — a bad segment falls to the store, a
// damaged image loses that block, an unusable log loses the tail past the
// watermark — and RecoveryPath is read off the per-table outcomes.
//
// Invariant: while a table's log is not quarantined, the log's cursor equals
// the table's NextRow, because addBatch appends to the log before applying
// to the table and a rejected batch quarantines the log. Record row indexes
// are therefore exact, which is what lets replay slice records that straddle
// the watermark.

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"scuba/internal/disk"
	"scuba/internal/obs"
	"scuba/internal/rowblock"
	"scuba/internal/shm"
	"scuba/internal/table"
)

// tableOutcome is what recoverTable did for one table.
type tableOutcome struct {
	stat TableCopyStat
	path TableRecovery // Path is RecoveryNone when the table was lost
	// quarantined: the table's shm segment failed and the store took over.
	quarantined bool
	// view is the live mapping an instant-on table serves from.
	view *shm.MappedView
	// images counts blocks loaded from the store; walRecords/walRows what the
	// log replayed on top of them.
	images     int
	walRecords int
	walRows    int64
	// err fails Start: the table's log could not be made to match it.
	err error
}

func (o *tableOutcome) addReason(why string) {
	if o.path.Reason != "" {
		o.path.Reason += "; "
	}
	o.path.Reason += why
}

// Start runs recovery and brings the leaf ALIVE. It implements the restore
// state machine of Figure 5(b) and the pseudocode of Figure 7, generalized
// from "shm or disk" to the loop above.
func (l *Leaf) Start() error {
	begin := time.Now()
	l.restartBegin = begin
	l.firstQueryOpen.Store(true)
	info := RecoveryInfo{Path: RecoveryNone}

	segs, err := l.claimShm(&info)
	if err != nil {
		return err
	}
	phase := obs.PhaseDiskRecovery
	switch {
	case segs == nil:
		// A crash, a consumed backup, or no shm at all: free any shared
		// memory still in use (Figure 7).
		l.shm.RemoveAll() //nolint:errcheck // best effort cleanup
	case l.cfg.InstantOn:
		phase = obs.PhaseView
	default:
		phase = obs.PhaseCopyIn
	}
	names, logged, err := l.recoverableTables(segs)
	if err != nil {
		return err
	}

	sp := l.cfg.Obs.Start(phase)
	outcomes := make([]tableOutcome, len(names))
	if len(names) > 0 {
		info.Workers = l.copyWorkers(len(names))
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < info.Workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			busy := time.Now()
			var bytes int64
			for idx := range jobs { // disjoint indices: no mutex needed
				var seg *shm.SegmentInfo
				if si, ok := segs[names[idx]]; ok {
					seg = &si
				}
				outcomes[idx] = l.recoverTable(names[idx], seg, logged[names[idx]], worker)
				bytes += outcomes[idx].stat.Bytes
			}
			l.recordCopyWorker("restore", worker, bytes, time.Since(busy))
		}(w)
	}
	for i := range names {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	sp.End(nil)

	var live []string
	for _, o := range outcomes {
		if o.err != nil {
			return o.err
		}
		info.PerTablePath = append(info.PerTablePath, o.path)
		if o.quarantined {
			info.Quarantined++
		}
		if o.path.Path == RecoveryNone {
			continue
		}
		info.Tables++
		info.Blocks += o.stat.Blocks
		info.BytesRestored += o.stat.Bytes
		info.PerTable = append(info.PerTable, o.stat)
		info.SnapshotBlocks += o.images
		info.WALRecords += o.walRecords
		info.WALRowsReplayed += o.walRows
		if o.view != nil {
			info.ServedFromShm += int64(o.stat.Blocks)
			live = append(live, o.view.SegmentName())
		}
	}
	// With no table to read a path off, the leaf took the path its source
	// decided: a valid (empty) shm backup, or the exception edge to disk.
	switch {
	case len(names) > 0:
		info.Path = leafPath(info.PerTablePath)
	case segs != nil:
		info.Path = RecoveryMemory
	case info.FellBack:
		info.Path = RecoveryDisk
	}
	if segs != nil {
		// The backup is consumed (Figure 7: delete the metadata and the
		// segments): no future start may trust it, so a crash from here on
		// recovers from the store and the log. Live views keep their files
		// until the last reference drains; everything else goes, failed
		// tables' segments and a previous generation's orphans included.
		// The valid bit is already false, so what cannot be removed is
		// garbage, not a hazard.
		if err := l.shm.RemoveMetadata(); err != nil {
			l.cfg.Obs.Event(obs.EventNote, obs.PhaseMap, "consumed metadata not removed: "+err.Error())
		}
		l.shm.RemoveOtherSegments(live) //nolint:errcheck // best-effort sweep
	}
	l.walReady.Store(true)

	info.Duration = time.Since(begin)
	if l.cfg.OnRestartPhase != nil {
		l.cfg.OnRestartPhase(restartPhaseName(info.Path), info.Path, info.Duration)
	}
	l.cfg.Obs.Event(obs.EventNote, "restart.recovered",
		fmt.Sprintf("path=%s tables=%d blocks=%d bytes=%d in %v",
			info.Path, info.Tables, info.Blocks, info.BytesRestored, info.Duration))
	l.mu.Lock()
	l.recovery = info
	for _, t := range l.tables {
		if t.State() != table.StateAlive {
			if err := t.Transition(table.StateAlive); err != nil {
				l.mu.Unlock()
				return err
			}
		}
	}
	err = l.transitionLocked(StateAlive)
	l.mu.Unlock()
	if err == nil && info.ServedFromShm > 0 {
		// Promotion starts only after the leaf is ALIVE: queries are already
		// being answered from the views, and the copy the paper blocked
		// availability on happens here, in the background.
		l.startPromoter()
	}
	return err
}

// claimShm is Figure 7's opening: if this start may take blocks from shared
// memory it clears the valid bit first — so an interrupted restore reverts to
// the store on the next start — and returns the table segments by table. It
// returns nil, with the leaf in DISK_RECOVERY, when shm is off by config,
// absent, invalid (a crash or a consumed backup), from another layout
// version, or unreadable (Figure 5b's exception edge, reported as FellBack).
func (l *Leaf) claimShm(info *RecoveryInfo) (map[string]shm.SegmentInfo, error) {
	if l.cfg.DisableMemoryRecovery {
		l.cfg.Obs.Event(obs.EventNote, "restart.disk_fallback", "memory recovery disabled by config")
		return nil, l.transition(StateDiskRecovery)
	}
	if err := l.transition(StateMemoryRecovery); err != nil {
		return nil, err
	}
	ms := l.cfg.Obs.Start(obs.PhaseMap)
	md, err := l.shm.ReadMetadata()
	why := ""
	switch {
	case errors.Is(err, shm.ErrNoMetadata):
		err, why = nil, "no shm metadata"
	case err != nil:
	case !md.Valid:
		why = "valid bit unset (crash or consumed backup)"
	case md.Version != shm.LayoutVersion:
		// The shared memory layout changed between releases; the data is
		// unreadable by this binary (§4.2).
		why = fmt.Sprintf("layout version skew (segment %d, binary %d)", md.Version, shm.LayoutVersion)
	default:
		md.Valid = false
		err = l.shm.WriteMetadata(md)
	}
	ms.End(err)
	switch {
	case err != nil:
		info.FellBack = true
		l.cfg.Obs.Event(obs.EventNote, "restart.disk_fallback",
			"memory recovery failed, falling back to disk: "+err.Error())
	case why != "":
		l.cfg.Obs.Event(obs.EventNote, obs.PhaseMap, why+": taking the disk path")
	default:
		segs := make(map[string]shm.SegmentInfo, len(md.Segments))
		for _, si := range md.Segments {
			segs[si.Table] = si
		}
		return segs, nil
	}
	return nil, l.transition(StateDiskRecovery)
}

// recoverableTables names every table any source knows, sorted, and says
// which of them have a log.
func (l *Leaf) recoverableTables(segs map[string]shm.SegmentInfo) ([]string, map[string]bool, error) {
	known := make(map[string]bool)
	for name := range segs {
		known[name] = true
	}
	if l.store != nil {
		stored, err := l.store.Tables()
		if err != nil {
			return nil, nil, err
		}
		for _, name := range stored {
			known[name] = true
		}
	}
	logged := make(map[string]bool)
	if l.wal != nil {
		tables, err := l.wal.Tables()
		if err != nil {
			return nil, nil, err
		}
		for _, name := range tables {
			known[name], logged[name] = true, true
		}
	}
	names := make([]string, 0, len(known))
	for name := range known {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, logged, nil
}

// leafPath reads the leaf's recovery path off its tables': the one path they
// all took, shm-view when views and their eager-copy degradations mix, mixed
// otherwise. A lost table counts for the store path it was lost on.
func leafPath(tables []TableRecovery) RecoveryPath {
	took := make(map[RecoveryPath]bool)
	for _, tr := range tables {
		if tr.Path == RecoveryNone {
			took[RecoveryDisk] = true
		} else {
			took[tr.Path] = true
		}
	}
	if len(took) == 2 && took[RecoveryMemory] && took[RecoveryShmView] {
		return RecoveryShmView
	}
	if len(took) > 1 {
		return RecoveryMixed
	}
	for p := range took {
		return p
	}
	return RecoveryNone
}

// recoverTable brings one table back from the best source that validates,
// installs it, and leaves its log matching it. seg is the table's shm
// segment when this start may use shm; logged says the table has a log. The
// outcome's stat times the source that produced the table — the part of the
// restart that grows with its data — not the log reset after it.
func (l *Leaf) recoverTable(name string, seg *shm.SegmentInfo, logged bool, worker int) tableOutcome {
	o := tableOutcome{stat: TableCopyStat{Table: name, Worker: worker}, path: TableRecovery{Table: name}}
	tbl := table.NewRecovering(name, l.cfg.Table)
	var err error
	if seg != nil {
		half := "copy-in"
		if l.cfg.InstantOn {
			half = "view"
		}
		l.cfg.Obs.Event(obs.EventBegin, obs.PerTablePhase(half, name), fmt.Sprintf("worker %d", worker))
		if err = l.takeFromShm(tbl, *seg, &o); err == nil {
			l.install(name, tbl)
		}
		l.recordTableCopy(half, o.stat, err)
	}
	if err != nil {
		// A corrupt or unreadable segment quarantines only its own table to
		// the store instead of throwing away the whole shm restore.
		o.quarantined = true
		o.addReason(err.Error())
		l.cfg.Obs.Event(obs.EventFail, "restart.quarantine",
			fmt.Sprintf("table %q quarantined to disk: %v", name, err))
		o.stat = TableCopyStat{Table: name, Worker: worker}
		tbl = table.NewRecovering(name, l.cfg.Table)
		sp := l.cfg.Obs.Start(obs.PhaseDiskRecovery)
		err = l.loadFromStore(tbl, logged, &o)
		sp.End(err)
	} else if seg == nil {
		err = l.loadFromStore(tbl, logged, &o)
	}
	if err != nil {
		// Best effort: the table is lost, but the leaf still serves every
		// other table, and an absent table answers queries with empty partial
		// results, the same as a leaf that never held it (§1).
		l.mu.Lock()
		delete(l.tables, name)
		l.mu.Unlock()
		o.path.Path = RecoveryNone
		o.addReason("disk reload failed: " + err.Error())
		l.cfg.Obs.Event(obs.EventFail, "restart.quarantine", fmt.Sprintf("table %q lost: %v", name, err))
	}
	if l.wal != nil && o.path.Path != RecoveryWAL {
		// The table did not come back through its log, so the old log no
		// longer matches memory: start it over at the table's next row (0
		// for a lost table). A replayed log already had its cursor set.
		var next int64
		if err == nil {
			next = tbl.NextRow()
		}
		o.err = l.wal.ResetTable(name, next)
	}
	return o
}

// install makes a recovering table visible to queries and ingest.
func (l *Leaf) install(name string, tbl *table.Table) {
	l.mu.Lock()
	l.tables[name] = tbl
	l.mu.Unlock()
	l.attachCache(name, tbl)
}

// takeFromShm fills tbl with the sealed blocks in its shm segment: zero-copy
// views of the mapping when InstantOn — any view failure (map error, CRC,
// name mismatch) degrades the table to the copy — else Figure 7's copy-in.
// A clean shutdown seals every table's unsealed tail before copy-out
// (Figure 5c PREPARE), so a segment never carries unsealed rows.
func (l *Leaf) takeFromShm(tbl *table.Table, si shm.SegmentInfo, o *tableOutcome) error {
	begin := time.Now()
	var blocks []*rowblock.RowBlock
	var verr error
	o.path.Path = RecoveryMemory
	if l.cfg.InstantOn {
		var v *shm.MappedView
		if v, verr = l.openView(si); verr != nil {
			l.cfg.Obs.Event(obs.EventFail, obs.PerTablePhase("view", si.Table),
				"degrading to eager copy-in: "+verr.Error())
		} else if v == nil {
			// Zero-block segment: an empty table. Nothing to serve from shm,
			// so the file can go now.
			l.shm.RemoveSegment(si.Segment) //nolint:errcheck
		} else {
			blocks, o.view, o.path.Path = v.Blocks(), v, RecoveryShmView
		}
	}
	if !l.cfg.InstantOn || verr != nil {
		var err error
		if blocks, err = l.copyBlocksIn(si); err != nil {
			if verr != nil {
				err = fmt.Errorf("view: %v; eager copy-in: %w", verr, err)
			}
			return err
		}
	}
	// The validation or the copy is the table's share of the restart gap;
	// what follows is bookkeeping that does not grow with its bytes.
	o.stat.Duration = time.Since(begin)
	starts, through := l.adoptImages(si.Table, blocks)
	err := tbl.Transition(table.StateMemoryRecovery)
	for i := 0; err == nil && i < len(blocks); i++ {
		err = tbl.RestoreBlock(blocks[i], starts[i])
		o.stat.Blocks++
		o.stat.Bytes += blocks[i].Header().Size
	}
	if err != nil {
		// Unreachable (a fresh table takes any ascending starts); release the
		// residency references so a view's mapping drains.
		rowblock.ReleaseSources(blocks)
		o.view = nil
		return err
	}
	tbl.AlignSealedEnd(through)
	tbl.MarkPersistedThrough(through)
	return nil
}

// openView maps one segment read-only as zero-copy blocks (nil for a
// zero-block segment).
func (l *Leaf) openView(si shm.SegmentInfo) (*shm.MappedView, error) {
	v, err := shm.OpenTableSegmentView(l.shm, si.Segment)
	if err == nil && v != nil && v.TableName() != si.Table {
		// The name bytes sit outside the payload CRC; a mismatch against the
		// (CRC-guarded) metadata means the header rotted.
		err = fmt.Errorf("%w: segment names table %q, metadata says %q",
			shm.ErrSegCorrupt, v.TableName(), si.Table)
		v.Discard() //nolint:errcheck
		v = nil
	}
	return v, err
}

// copyBlocksIn copies one table's blocks out of its segment (Figure 7's
// per-table steps): open (which validates the payload CRC), drain blocks in
// reverse (truncating the segment as pages release), restore original order,
// delete the segment. On failure the segment is left in place; Start's final
// sweep removes it with everything else.
func (l *Leaf) copyBlocksIn(si shm.SegmentInfo) ([]*rowblock.RowBlock, error) {
	r, err := shm.OpenTableSegment(l.shm, si.Segment)
	if err != nil {
		return nil, fmt.Errorf("open segment: %w", err)
	}
	if r.TableName() != si.Table {
		r.Close(false) //nolint:errcheck
		return nil, fmt.Errorf("%w: segment names table %q, metadata says %q",
			shm.ErrSegCorrupt, r.TableName(), si.Table)
	}
	blocks := make([]*rowblock.RowBlock, 0, r.NumBlocks())
	for {
		if h := l.restoreBlockHook; h != nil {
			if err := h(si.Table, len(blocks)); err != nil {
				r.Close(false) //nolint:errcheck
				return nil, err
			}
		}
		rb, err := r.ReadBlock()
		if err != nil {
			r.Close(false) //nolint:errcheck
			return nil, err
		}
		if rb == nil {
			break
		}
		blocks = append(blocks, rb)
	}
	for i, j := 0, len(blocks)-1; i < j; i, j = i+1, j-1 {
		blocks[i], blocks[j] = blocks[j], blocks[i]
	}
	// Figure 7: delete the table shared memory segment.
	return blocks, r.Close(true)
}

// adoptImages gives blocks restored from shm their global row indexes and
// says how far the store's images cover them. The segment carries no
// indexes, but a clean shutdown persisted every block before copying it out,
// so the store's images tile the blocks exactly and their names hold the
// indexes: the images are adopted as they are and nothing is rewritten. When
// they do not tile (no store, an image lost, one left behind by a killed
// expiry) the table's images are dropped, its numbering restarts at 0 and
// the next persist pass writes them again.
func (l *Leaf) adoptImages(name string, blocks []*rowblock.RowBlock) ([]int64, int64) {
	starts := make([]int64, len(blocks))
	if l.store != nil {
		images, w, err := l.store.Images(name)
		tile := err == nil && len(images) == len(blocks)
		for i := 0; tile && i < len(images); i++ {
			im, hdr := images[i], blocks[i].Header()
			tile = im.Rows == blocks[i].Rows() && im.MaxTime == hdr.MaxTime &&
				(i == 0 || im.Start == images[i-1].End())
			starts[i] = im.Start
		}
		if n := len(images); tile && n > 0 {
			tile = w <= images[n-1].End()
			w = images[n-1].End()
		}
		if tile {
			return starts, w
		}
		if err := l.store.DropTable(name); err != nil {
			l.cfg.Obs.Event(obs.EventFail, "restart.adopt", fmt.Sprintf("table %q: stale images not dropped: %v", name, err))
		}
	}
	var next int64
	for i, rb := range blocks {
		starts[i] = next
		next += int64(rb.Rows())
	}
	return starts, 0
}

// loadFromStore fills tbl from the store's images and, when the table has a
// usable log, replays the log tail past their watermark through the function
// live ingest applies batches with (Table.AddBatch). The table serves
// queries with gradually increasing partial results while it loads (§4.1).
// A damaged image costs its block and an unusable log the tail behind the
// damage; both are named in the table's Reason. An error means the table
// could not be read at all.
func (l *Leaf) loadFromStore(tbl *table.Table, logged bool, o *tableOutcome) (err error) {
	name := tbl.Name()
	if l.store == nil {
		return errors.New("leaf: no disk store configured")
	}
	if err := tbl.Transition(table.StateDiskRecovery); err != nil {
		return err
	}
	l.install(name, tbl)
	o.path.Path = RecoveryDisk
	begin := time.Now()
	l.cfg.Obs.Event(obs.EventBegin, obs.PerTablePhase("disk", name), fmt.Sprintf("worker %d", o.stat.Worker))
	defer func() {
		o.stat.Duration = time.Since(begin)
		l.recordTableCopy("disk", o.stat, err)
	}()
	w, err := l.store.Load(name, func(im disk.Image, rb *rowblock.RowBlock, err error) error {
		if err != nil {
			o.addReason(err.Error())
			l.cfg.Obs.Event(obs.EventFail, obs.PerTablePhase("disk", name), err.Error())
			return nil
		}
		o.images++
		o.stat.Blocks++
		o.stat.Bytes += rb.Header().Size
		return tbl.RestoreBlock(rb, im.Start)
	})
	if err != nil {
		return err
	}
	// With zero images (retention expired them all) the watermark alone
	// carries the table's row base, so that replayed rows seal at their true
	// global indexes.
	tbl.AlignSealedEnd(w)
	tbl.MarkPersistedThrough(w)
	if !logged {
		return nil
	}
	if l.wal.Quarantined(name) {
		o.addReason("wal quarantined")
		return nil
	}
	recs, rows, pos, err := l.wal.ReplayFrom(name, w, func(b *rowblock.Batch) error {
		return tbl.AddBatch(b, l.cfg.Clock())
	})
	o.walRecords, o.walRows = recs, rows
	if err != nil {
		// The records before the damage were acked in this order and stay.
		o.addReason("replay: " + err.Error())
		l.cfg.Obs.Event(obs.EventFail, "restart.wal_fallback",
			fmt.Sprintf("table %q: log tail dropped after %d rows: %v", name, rows, err))
		return nil
	}
	o.path.Path = RecoveryWAL
	o.err = l.wal.SetCursor(name, pos)
	return nil
}
