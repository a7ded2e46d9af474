package leaf

// One recovery loop. Whatever the last process left behind, Start runs the
// same function for every table on one bounded worker pool:
//
//	for each table in (shm segments ∪ store tables ∪ log tables):
//	    take its blocks from shm (a mapped view, cloned to the heap before
//	        ALIVE unless InstantOn) if the valid bit and the segment's
//	        metadata CRCs allow,
//	    else load its images from the store and replay the log tail past
//	        their watermark if a usable log covers it;
//	    go ALIVE
//
// A fault costs one table one source — a bad segment falls to the store, a
// segment block that fails its check when first read is replaced by the
// store's image of it, a damaged image loses that block, an unusable log
// loses the tail past the watermark — and RecoveryPath is read off the
// per-table outcomes.
//
// Invariant: while a table's log is not quarantined, the log's cursor equals
// the table's NextRow, because addBatch appends to the log before applying
// to the table and a rejected batch quarantines the log. Record row indexes
// are therefore exact, which is what lets replay slice records that straddle
// the watermark.

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"scuba/internal/disk"
	"scuba/internal/obs"
	"scuba/internal/rowblock"
	"scuba/internal/shm"
	"scuba/internal/table"
)

// tableOutcome is what recoverTable decided for one table; what it cost is in
// the table's spans.
type tableOutcome struct {
	path TableRecovery // Path is RecoveryNone when the table was lost
	// quarantined: the table's shm segment failed and the store took over.
	quarantined bool
	// view is the table's segment view: its file stays past ALIVE while an
	// instant-on table serves blocks of it.
	view *shm.MappedView
	// walRecords/walRows is what the log replayed on top of the images.
	walRecords int
	walRows    int64
	// err fails Start: the table's log could not be made to match it.
	err error
}

func (tr *TableRecovery) addReason(why string) {
	if tr.Reason != "" {
		tr.Reason += "; "
	}
	tr.Reason += why
}

// countLoss records on tr, and in the registry, one block recovery could not
// serve as it found it: replaced by the store's image of the same rows, or
// dropped with its rows.
func (l *Leaf) countLoss(tr *TableRecovery, start int64, rows int, replaced bool, why error) {
	reg := l.registry()
	if replaced {
		tr.BlocksReplaced++
		tr.addReason(fmt.Sprintf("block at row %d replaced from the store: %v", start, why))
		if reg != nil {
			reg.Counter("restart.blocks_replaced").Add(1)
		}
		return
	}
	tr.BlocksDropped++
	tr.RowsDropped += int64(rows)
	tr.addReason(fmt.Sprintf("block at row %d dropped: %v", start, why))
	if reg != nil {
		reg.Counter("restart.rows_dropped").Add(int64(rows))
	}
}

// fromSpans fills in what a start's restart spans say about it.
func (info *RecoveryInfo) fromSpans(trace obs.Trace) {
	up := trace.Half(obs.HalfStart)
	info.PerTable = up.Tables()
	info.Tables = len(info.PerTable)
	info.Blocks, info.BytesRestored = up.Moved()
	info.SnapshotBlocks, _ = up.Phases(obs.PhaseTableLoad).Moved()
	served, _ := up.Phases(obs.PhaseTableView).Moved()
	info.ServedFromShm = int64(served)
	info.Duration = up.Phases(obs.PhaseMap, obs.PhaseCopyIn, obs.PhaseView, obs.PhaseDiskRecovery, obs.PhaseAlive).Elapsed()
}

// Start runs recovery and brings the leaf ALIVE. It implements the restore
// state machine of Figure 5(b) and the pseudocode of Figure 7, generalized
// from "shm or disk" to the loop above. Its top-level spans — map, then one
// of copy_in / view / disk_recovery, then alive, then first_answer — follow
// one another from its first instruction to the first answered query: the
// availability gap is their sum.
func (l *Leaf) Start() error {
	r := l.cfg.Obs.Restart(obs.HalfStart)
	l.mu.Lock()
	l.restart = r
	l.mu.Unlock()
	info := RecoveryInfo{Path: RecoveryNone}

	ms := r.Begin(obs.PhaseMap, "", -1)
	segs, skew, err := l.claimShm(&info)
	var names []string
	var logged map[string]bool
	if err == nil {
		if segs == nil {
			// A crash, a consumed backup, or no shm at all: free any shared
			// memory still in use (Figure 7).
			l.shm.RemoveAll() //nolint:errcheck // best effort cleanup
		}
		names, logged, err = l.recoverableTables(segs)
	}
	ms.End(err)
	if err != nil {
		return err
	}

	phase := obs.PhaseDiskRecovery
	switch {
	case segs != nil && l.cfg.InstantOn:
		phase = obs.PhaseView
	case segs != nil:
		phase = obs.PhaseCopyIn
	}
	sp := r.Begin(phase, "", -1)
	outcomes := make([]tableOutcome, len(names))
	// A job's size is what it will read, by stat calls alone: the table's shm
	// segment when it has one, else the store's image files plus the log's
	// segments — so the crash path's pool, too, takes its largest table first.
	size := func(i int) (n int64) {
		if si, ok := segs[names[i]]; ok {
			return l.shm.SegmentSize(si.Segment)
		}
		if l.store != nil {
			n += l.store.Size(names[i])
		}
		if l.wal != nil {
			n += l.wal.Size(names[i])
		}
		return n
	}
	info.Workers, err = fanOut(context.Background(), startPool, len(names), size, func(_ context.Context, worker, i int) error {
		si, hasSeg := segs[names[i]]
		outcomes[i] = l.recoverTable(r, worker, names[i], si, hasSeg, logged[names[i]])
		return outcomes[i].err
	})
	sp.End(err)
	if err != nil {
		return err
	}

	var live []string
	for _, o := range outcomes {
		if skew != "" {
			o.path.addReason(skew) // the backup this table had, unread
		}
		info.PerTablePath = append(info.PerTablePath, o.path)
		if o.quarantined {
			info.Quarantined++
		}
		info.WALRecords += o.walRecords
		info.WALRowsReplayed += o.walRows
		if o.view != nil {
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

	al := r.Begin(obs.PhaseAlive, "", -1)
	if segs != nil {
		// The backup is consumed (Figure 7: delete the metadata and the
		// segments): no future start may trust it, so a crash from here on
		// recovers from the store and the log. Live views keep their files
		// while a table holds their blocks; everything else goes, failed
		// tables' segments and a previous generation's orphans included.
		// The valid bit is already false, so what cannot be removed is
		// garbage, not a hazard.
		l.shm.RemoveMetadata()          //nolint:errcheck // best-effort sweep
		l.shm.RemoveOtherSegments(live) //nolint:errcheck // best-effort sweep
	}
	l.walReady.Store(true)
	l.mu.Lock()
	l.recovery = info
	for _, t := range l.tables {
		if err == nil && t.State() != table.StateAlive {
			err = t.Transition(table.StateAlive)
		}
	}
	if err == nil {
		err = l.transitionLocked(StateAlive)
	}
	l.mu.Unlock()
	// Ended only now: from its end on the ledger hands spans to the telemetry
	// sink, and the sink's rows go through AddRows on an ALIVE leaf.
	al.End(err)
	if err != nil {
		return err
	}
	l.mu.Lock()
	l.recovery.fromSpans(r.Spans())
	served := l.recovery.ServedFromShm
	l.mu.Unlock()
	l.firstAnswer = r.Begin(obs.PhaseFirstAnswer, "", -1)
	l.firstQueryOpen.Store(true)
	l.handOffUnpersisted()
	if served > 0 {
		// Promotion starts only after the leaf is ALIVE: queries are already
		// being answered from the views, and the copy the paper blocked
		// availability on happens here, in the background.
		l.startPromoter()
	}
	return nil
}

// handOffUnpersisted hands the persister every table holding sealed blocks
// no image of its own covers; blocks reach the store as they seal, so
// nothing else would. Start calls it at ALIVE — for a table restored from
// shm whose images did not tile (until its persist ends, a crash recovers
// the stale images), or one whose replay sealed because a crash cut its
// persist off — and the promoter once it is done, for a stale table that
// still served blocks from shm at ALIVE.
func (l *Leaf) handOffUnpersisted() {
	for _, t := range l.tablesSorted() {
		if blocks, _ := t.UnpersistedBlocks(); len(blocks) > 0 {
			l.persistBehind(t)
		}
	}
}

// claimShm is Figure 7's opening: if this start may take blocks from shared
// memory it clears the valid bit first — so an interrupted restore reverts to
// the store on the next start — and returns the table segments by table. It
// returns nil, with the leaf in DISK_RECOVERY and the reason noted in the
// flight recorder, when shm is off by config, absent, invalid (a crash or a
// consumed backup), from another layout version — then skew says so, for
// every table to report — or unreadable (Figure 5b's exception edge,
// reported as FellBack).
func (l *Leaf) claimShm(info *RecoveryInfo) (segs map[string]shm.SegmentInfo, skew string, err error) {
	why := "memory recovery disabled by config"
	if !l.cfg.DisableMemoryRecovery {
		if err := l.transition(StateMemoryRecovery); err != nil {
			return nil, "", err
		}
		md, err := l.shm.ReadMetadata()
		if err == nil && md.Valid && md.Version == shm.LayoutVersion {
			md.Valid = false
			if err = l.shm.WriteMetadata(md); err == nil {
				segs := make(map[string]shm.SegmentInfo, len(md.Segments))
				for _, si := range md.Segments {
					segs[si.Table] = si
				}
				return segs, "", nil
			}
		}
		switch {
		case errors.Is(err, shm.ErrNoMetadata):
			why = "no shm metadata"
		case err != nil:
			info.FellBack = true
			why = "memory recovery failed: " + err.Error()
		case !md.Valid:
			why = "valid bit unset (crash or consumed backup)"
		default:
			// The shared memory layout changed between releases; the data is
			// unreadable by this binary (§4.2).
			why = fmt.Sprintf("layout version skew (segment %d, binary %d)", md.Version, shm.LayoutVersion)
			skew = "shm backup unread: " + why
		}
	}
	l.cfg.Obs.Event(obs.EventNote, obs.PhaseMap, why+": taking the disk path")
	return nil, skew, l.transition(StateDiskRecovery)
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
// all took, shm-view when views and empty tables (memory: nothing to view)
// mix, mixed otherwise. A lost table counts for the store path it was lost on.
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
// installs it, and leaves its log matching it, each step a span on this
// pool worker. seg is the table's shm segment, given hasSeg: this start may use
// shm and the backup holds the table; logged says the table has a log.
func (l *Leaf) recoverTable(r *obs.Restart, worker int, name string, seg shm.SegmentInfo, hasSeg, logged bool) tableOutcome {
	o := tableOutcome{path: TableRecovery{Table: name}}
	tbl := table.NewRecovering(name, l.cfg.Table)
	var err error
	if hasSeg {
		if err = l.takeFromShm(r, worker, tbl, seg, &o); err == nil {
			l.install(name, tbl)
		} else {
			// A corrupt or unreadable segment quarantines only its own table to
			// the store instead of throwing away the whole shm restore.
			o.quarantined = true
			o.path.addReason(err.Error())
			tbl = table.NewRecovering(name, l.cfg.Table)
		}
	}
	if !hasSeg || err != nil {
		err = l.loadFromStore(r, worker, tbl, logged, &o)
	}
	if err != nil {
		// Best effort: the table is lost, but the leaf still serves every
		// other table, and an absent table answers queries with empty partial
		// results, the same as a leaf that never held it (§1).
		l.mu.Lock()
		delete(l.tables, name)
		l.mu.Unlock()
		o.path.Path = RecoveryNone
		o.path.addReason("disk reload failed: " + err.Error())
	}
	if l.wal != nil && o.path.Path != RecoveryWAL {
		// The table did not come back through its log, so the old log no
		// longer matches memory: empty it and start it over at the table's
		// next row (0 for a lost table). After a clean shutdown it is empty
		// already, and this unlinks nothing. A replayed log already had its
		// cursor set.
		sp := r.Begin(obs.PhaseTableLogReset, name, worker)
		sp.Recovery = string(o.path.Path)
		var next int64
		if err == nil {
			next = tbl.NextRow()
		}
		o.err = l.wal.ResetTable(name, next)
		sp.End(o.err)
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

// sizeOf sums the blocks' sizes as their headers state them — the volume a
// restart reports as restored.
func sizeOf(blocks []*rowblock.RowBlock) (n int64) {
	for _, rb := range blocks {
		n += rb.Header().Size
	}
	return n
}

// takeFromShm fills tbl with the sealed blocks in its shm segment, the same
// way for both starts: the segment is opened as a mapped view (the table's
// view span), which checks its metadata, and its blocks go into the table
// as they are, aliasing the mapping; a segment that will not open or
// validate sends the table to the store. An eager start then moves them to
// the heap here, before ALIVE (copyIn); an instant-on start serves the view
// and leaves the move to the promoter behind ALIVE. Either way a block's
// columns are checked by their first reader, and one that fails is replaced
// by the store's image of its rows (replaceDamaged). Any other failure
// returns the blocks the table still serves from the view, and the table is
// quarantined to the store. A clean shutdown seals every table's unsealed
// tail before copy-out (Figure 5c PREPARE), so a segment never carries
// unsealed rows.
func (l *Leaf) takeFromShm(r *obs.Restart, worker int, tbl *table.Table, si shm.SegmentInfo, o *tableOutcome) error {
	path := RecoveryMemory
	if l.cfg.InstantOn {
		path = RecoveryShmView
	}
	sp := r.Begin(obs.PhaseTableView, si.Table, worker)
	sp.Recovery = string(path)
	v, err := shm.OpenTableSegmentView(l.shm, si)
	if err != nil {
		sp.End(err)
		return fmt.Errorf("open segment: %w", err)
	}
	blocks := v.Blocks()
	o.path.Path = RecoveryMemory
	if l.cfg.InstantOn && len(blocks) > 0 { // an empty segment leaves nothing to view: memory
		o.path.Path, sp.Blocks, sp.Bytes = path, len(blocks), sizeOf(blocks)
	}
	sp.End(nil)
	starts, through, stale := l.adoptImages(r, worker, si.Table, string(o.path.Path), blocks)
	err = tbl.Transition(table.StateMemoryRecovery)
	for i := 0; err == nil && i < len(blocks); i++ {
		err = tbl.RestoreBlock(blocks[i], starts[i])
	}
	if err != nil {
		// Unreachable (a fresh table takes any ascending starts); end the
		// residencies so the view's mapping drains.
		rowblock.ReleaseSources(blocks)
		return err
	}
	if !l.cfg.InstantOn {
		if err := l.copyIn(r, worker, tbl, o); err != nil {
			rowblock.ReleaseSources(tbl.Blocks())
			return err
		}
	}
	tbl.AlignSealedEnd(through)
	tbl.MarkPersistedThrough(through)
	if stale {
		l.mu.Lock()
		if l.stale == nil {
			l.stale = make(map[string]bool)
		}
		l.stale[si.Table] = true
		l.mu.Unlock()
	}
	o.view = v
	return nil
}

// copyIn is Figure 7's copy-in, the table's copy_in span: the promoter's
// loop (moveBlocks) run on the table's recovery worker before ALIVE, which
// leaves the table holding heap blocks only, and the segment, cut back
// behind every block, gone.
func (l *Leaf) copyIn(r *obs.Restart, worker int, tbl *table.Table, o *tableOutcome) error {
	sp := r.Begin(obs.PhaseTableCopyIn, tbl.Name(), worker)
	sp.Recovery = string(RecoveryMemory)
	var err error
	sp.Blocks, sp.Bytes, err = l.moveBlocks(context.Background(), tbl, &o.path)
	sp.End(err)
	return err
}

// storeImage is the store's image of the rows a damaged block held — the
// clean shutdown persisted every block before it set the valid bit — or nil
// when the store has none with the block's header. It looks at start first;
// a stale table's images are numbered otherwise.
func (l *Leaf) storeImage(name string, start int64, bad *rowblock.RowBlock) *rowblock.RowBlock {
	if l.store == nil {
		return nil
	}
	images, _, err := l.store.Images(name)
	if err != nil {
		return nil
	}
	sort.SliceStable(images, func(i, j int) bool { return images[i].Start == start && images[j].Start != start })
	for _, im := range images {
		if im.Rows != bad.Rows() || im.MaxTime != bad.Header().MaxTime {
			continue
		}
		if rb, err := l.store.LoadImage(name, im); err == nil && rb.Header() == bad.Header() {
			return rb
		}
	}
	return nil
}

func (l *Leaf) isStale(name string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stale[name]
}

// replaceDamaged takes a block whose first read found it damaged — a scan's,
// or a move's clone — out of tbl, swapping in the store's image of the same
// rows, or dropping it when there is none, and counts that on tr: the
// table's record while it recovers, nil once the leaf's record holds it
// (ALIVE). It reports whether the block is out of the table: also when
// another reader took it out first.
func (l *Leaf) replaceDamaged(tbl *table.Table, bad *rowblock.RowBlock, why error, tr *TableRecovery) bool {
	start, ok := tbl.StartOf(bad)
	if !ok {
		return true
	}
	rb := l.storeImage(tbl.Name(), start, bad)
	if !tbl.SwapBlock(bad, rb) {
		_, held := tbl.StartOf(bad)
		return !held
	}
	if src := bad.Source(); src != nil {
		src.Release() // the reference the ended residency held
	}
	if tr != nil {
		l.countLoss(tr, start, bad.Rows(), rb != nil, why)
		return true
	}
	l.mu.Lock()
	for i := range l.recovery.PerTablePath {
		if tr := &l.recovery.PerTablePath[i]; tr.Table == tbl.Name() {
			l.countLoss(tr, start, bad.Rows(), rb != nil, why)
		}
	}
	l.mu.Unlock()
	return true
}

// adoptImages gives blocks restored from shm their global row indexes and
// says how far the store's images cover them. The segment carries no
// indexes, but a clean shutdown persisted every block before copying it out,
// so the store's images tile the blocks exactly and their names hold the
// indexes: the images are adopted as they are and nothing is rewritten. When
// they do not tile (an image lost, one left behind by a killed expiry) the
// numbering restarts at 0 and the images are stale: they stay, for a damaged
// block's rows (storeImage), until the table's first persist with all of its
// blocks on the heap replaces them (Leaf.stale).
func (l *Leaf) adoptImages(r *obs.Restart, worker int, name, source string, blocks []*rowblock.RowBlock) (starts []int64, through int64, stale bool) {
	starts = make([]int64, len(blocks))
	if l.store != nil {
		sp := r.Begin(obs.PhaseTableAdopt, name, worker)
		sp.Recovery = source
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
		sp.End(err)
		if tile {
			return starts, w, false
		}
		stale = true
	}
	var next int64
	for i, rb := range blocks {
		starts[i] = next
		next += int64(rb.Rows())
	}
	return starts, 0, stale
}

// loadFromStore fills tbl from the store's images (the load span) and, when
// the table has a usable log, replays the log tail past their watermark
// through the function live ingest applies batches with, Table.AddBatch (the
// replay span). The table serves queries with gradually increasing partial
// results while it loads (§4.1). A damaged image costs its block and an
// unusable log the tail behind the damage; both are named in the table's
// Reason. An error means the table could not be read at all.
func (l *Leaf) loadFromStore(r *obs.Restart, worker int, tbl *table.Table, logged bool, o *tableOutcome) error {
	name := tbl.Name()
	if l.store == nil {
		return errors.New("leaf: no disk store configured")
	}
	if err := tbl.Transition(table.StateDiskRecovery); err != nil {
		return err
	}
	l.install(name, tbl)
	o.path.Path = RecoveryDisk
	sp := r.Begin(obs.PhaseTableLoad, name, worker)
	sp.Recovery = string(RecoveryDisk)
	// An image that will not decode costs its block; its rows are counted
	// once the load is over (a hole before an image is reported on it too).
	unread := make(map[int64]int)
	w, err := l.store.Load(name, func(im disk.Image, rb *rowblock.RowBlock, err error) error {
		if err != nil {
			if im.Name != "" {
				unread[im.Start] = im.Rows
			}
			o.path.addReason(err.Error())
			return nil
		}
		delete(unread, im.Start)
		sp.Blocks++
		sp.Bytes += rb.Header().Size
		return tbl.RestoreBlock(rb, im.Start)
	})
	sp.End(err)
	for _, rows := range unread {
		o.path.BlocksDropped++
		o.path.RowsDropped += int64(rows)
		if reg := l.registry(); reg != nil {
			reg.Counter("restart.rows_dropped").Add(int64(rows))
		}
	}
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
		o.path.addReason("wal quarantined")
		return nil
	}
	sp = r.Begin(obs.PhaseTableReplay, name, worker)
	sp.Recovery = string(RecoveryWAL)
	recs, rows, pos, err := l.wal.ReplayFrom(name, w, tbl.Reserve, func(b *rowblock.Batch) error {
		return tbl.AddBatch(b, l.cfg.Clock())
	})
	sp.End(err)
	o.walRecords, o.walRows = recs, rows
	if err != nil {
		// The records before the damage were acked in this order and stay.
		o.path.addReason("replay: " + err.Error())
		return nil
	}
	o.path.Path = RecoveryWAL
	o.err = l.wal.SetCursor(name, pos)
	return nil
}
