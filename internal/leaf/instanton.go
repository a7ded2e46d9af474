package leaf

// Instant-on restarts (DESIGN.md §14). The paper gates post-restart
// availability on the full copy-in of Figure 7 because a shm heap allocator
// was judged too invasive (§3); but the segment layout is
// one-memcpy-relocatable, so recover.go's takeFromShm maps each table segment
// read-only and decodes every block image in place, and with InstantOn it
// flips the leaf ALIVE the moment the metadata validates instead of cloning
// the blocks first; each block's columns are checked by their first reader.
// The copy the paper blocked availability on still happens — as background
// promotion on a bounded worker pool, hottest tables first (per-table
// decode-cache hits as the heat signal), each block swapped for its heap
// clone (Leaf.cloneBlock, the eager drain's own step) without disturbing
// in-flight scans. This file is that promotion.

import (
	"context"
	"errors"

	"scuba/internal/metrics"
	"scuba/internal/obs"
	"scuba/internal/rowblock"
	"scuba/internal/table"
)

// ---- Background promotion ----

// promoter is the handle on the background drain of shm-resident blocks
// heap-side after an instant-on restore: stopPromoter cancels it and waits.
type promoter struct {
	cancel context.CancelFunc
	done   chan struct{} // closed once the workers are gone and the drain's span has ended
}

// promoteCursor walks one table's view blocks, oldest first to match scan
// order. A block whose promotion fails (injected fault) is passed like any
// other: the table just keeps serving it from shm. One whose copy fails its
// check is replaced from the store.
type promoteCursor struct {
	tbl    *table.Table
	blocks []*rowblock.RowBlock
}

// startPromoter launches the background promotion on the pool, one job per
// view block. Called once per Start, after the leaf transitions ALIVE. The
// drain is the start ledger's restart.promote span, ended by whichever comes
// first: the last block promoted, or stopPromoter; the channel it returns is
// closed then.
func (l *Leaf) startPromoter() <-chan struct{} {
	ctx, cancel := context.WithCancel(context.Background())
	p := &promoter{cancel: cancel, done: make(chan struct{})}
	// copyTime is restart.promote.block. Promotion is one span for the
	// whole drain, not one per block: the blocks are Leaf.promoted and this
	// timer of their heap copies.
	copyTime := new(metrics.Timer)
	if reg := l.registry(); reg != nil {
		copyTime = reg.Timer("restart.promote.block")
	}
	var cursors []*promoteCursor
	n := 0
	for _, tbl := range l.tablesSorted() {
		c := &promoteCursor{tbl: tbl}
		for _, rb := range tbl.Blocks() {
			if rb.Source() != nil {
				c.blocks = append(c.blocks, rb)
			}
		}
		cursors = append(cursors, c)
		n += len(c.blocks)
	}
	l.mu.Lock()
	l.promo = p
	l.mu.Unlock()
	// next takes the oldest view block left in the hottest table — by its
	// decode cache's hit count now, not at the start: the tables dashboards are
	// asking for come off shm first. Ties go by name for determinism.
	next := func() (*table.Table, *rowblock.RowBlock) {
		l.mu.Lock()
		defer l.mu.Unlock()
		var hot *promoteCursor
		var heat int64
		for _, c := range cursors {
			if h := l.caches[c.tbl.Name()].Hits(); len(c.blocks) > 0 && (hot == nil || h > heat) {
				hot, heat = c, h
			}
		}
		rb := hot.blocks[0]
		hot.blocks = hot.blocks[1:]
		return hot.tbl, rb
	}
	sp := l.restart.Begin(obs.PhasePromote, "", -1)
	sp.Recovery = string(RecoveryShmView)
	go func() {
		// There are as many jobs as blocks and each takes one, whichever is
		// next by then: the job's index and size say nothing.
		fanOut(ctx, backgroundPool, n, func(int) int64 { return 0 }, func(context.Context, int, int) error { //nolint:errcheck // jobs return none
			tbl, rb := next()
			l.promoteBlock(tbl, rb, copyTime)
			return nil
		})
		sp.Blocks = int(l.promoted.Load())
		sp.End(nil)
		l.handOffUnpersisted()
		close(p.done)
	}()
	return p.done
}

// stopPromoter stops the pool and waits for in-flight promotions to land.
// Shutdown calls it before touching any table so no promotion races the
// copy-out. Safe when no promoter is running.
func (l *Leaf) stopPromoter() {
	l.mu.Lock()
	p := l.promo
	l.promo = nil
	l.mu.Unlock()
	if p != nil {
		p.cancel()
		<-p.done
	}
}

// promoteBlock moves one shm-resident block heap-side: clone, swap, release
// the table's residency reference. A block that cannot be promoted stays where
// it is — the table keeps serving it from shm, which is always safe — unless
// its copy failed the check: then it is damaged, and replaced.
func (l *Leaf) promoteBlock(tbl *table.Table, rb *rowblock.RowBlock, copyTime *metrics.Timer) {
	var clone *rowblock.RowBlock
	var err error
	copyTime.Time(func() { clone, err = l.cloneBlock(tbl.Name(), rb) })
	var dmg *rowblock.DamagedError
	if errors.As(err, &dmg) {
		l.cfg.Obs.Event(obs.EventFail, obs.PhasePromote, tbl.Name()+": block replaced: "+err.Error())
		l.replaceDamaged(tbl, rb, dmg.Err)
		return
	}
	if err != nil {
		l.cfg.Obs.Event(obs.EventFail, obs.PhasePromote, tbl.Name()+": block stays shm-resident: "+err.Error())
		return
	}
	// A failed swap means the block left the table (expiry, shutdown) while we
	// copied, and whoever removed it released its residency reference. A swap
	// took the old block out of circulation and ended its residency: release
	// the reference that residency held (scans that snapshotted it still hold
	// their own pins).
	if tbl.SwapBlock(rb, clone) {
		rb.Source().Release()
		l.promoted.Add(1)
	}
}
