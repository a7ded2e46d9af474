package leaf

// The one way from a shm segment to the heap (DESIGN.md §14). The paper
// gates post-restart availability on the full copy-in of Figure 7 because a
// shm heap allocator was judged too invasive (§3); but the segment layout is
// one-memcpy-relocatable, so recover.go's takeFromShm maps each table segment
// read-only and puts its block images into the table decoded in place, each
// block's columns checked by their first reader. Both starts then run the
// same loop over each table's blocks, newest first: pin, clone (which checks
// the copy), swap the clone in. InstantOn only says when it runs: off, on the
// table's recovery worker before ALIVE (copyIn, the paper's eager copy-in);
// on, behind ALIVE on the background pool, largest table first, while the
// views serve queries zero-copy (the promoter). Behind a newest-first run
// the view hands the segment's tail back to tmpfs, so the footprint stays
// flat (§4.4).

import (
	"context"
	"errors"
	"fmt"

	"scuba/internal/fault"
	"scuba/internal/metrics"
	"scuba/internal/obs"
	"scuba/internal/rowblock"
	"scuba/internal/table"
)

// moveBlocks is the loop: tbl's shm-resident blocks (those ForeignBlocks
// counts), newest first, each pinned through the table, cloned to the heap
// and swapped in for the view block, whose residency ends (the view cuts its
// tail behind it). A mapped store image's block stays as it is. A block
// whose copy fails its check is replaced by the store's image of its rows or
// dropped (replaceDamaged, counted on tr: the table's record before ALIVE,
// nil behind it). A block that left the table meanwhile is passed. Any other
// error stops the loop, the blocks left still served from the view. It
// returns the clones swapped in and their bytes; every step is a
// restart.promote.block observation and counts in Recovery's PromotedBlocks.
func (l *Leaf) moveBlocks(ctx context.Context, tbl *table.Table, tr *TableRecovery) (moved int, bytes int64, err error) {
	copyTime := new(metrics.Timer)
	if reg := l.registry(); reg != nil {
		copyTime = reg.Timer("restart.promote.block")
	}
	blocks := tbl.Blocks()
	for i := len(blocks) - 1; i >= 0 && ctx.Err() == nil; i-- {
		rb := blocks[i]
		if rb.MappedImage() == nil { // a heap block, or a mapped store image's
			continue
		}
		var clone *rowblock.RowBlock
		copyTime.Time(func() { clone, err = l.cloneBlock(tbl, rb) })
		var dmg *rowblock.DamagedError
		switch {
		case errors.As(err, &dmg):
			l.cfg.Obs.Event(obs.EventFail, obs.PhasePromote, tbl.Name()+": block replaced: "+err.Error())
			l.replaceDamaged(tbl, rb, dmg.Err, tr)
		case err != nil:
			return moved, bytes, err
		case clone != nil && tbl.SwapBlock(rb, clone):
			rb.Source().Release() // the reference the ended residency held
			l.promoted.Add(1)
			moved++
			bytes += clone.Header().Size
		}
	}
	return moved, bytes, nil
}

// cloneBlock is the loop's one step: pin the block's view through the table
// (nil, nil when the table no longer holds it), fire shm.copy_in, copy the
// blobs and check the copies (CloneToHeap: a *rowblock.DamagedError when
// they fail).
func (l *Leaf) cloneBlock(tbl *table.Table, rb *rowblock.RowBlock) (*rowblock.RowBlock, error) {
	if !tbl.Pin(rb) {
		return nil, nil
	}
	defer rb.Source().Release()
	if err := fault.Inject(fault.SiteShmCopyIn); err != nil {
		return nil, fmt.Errorf("leaf: %s: copy in: %w", tbl.Name(), err)
	}
	return rb.CloneToHeap()
}

// promoter is the handle on the background move after an instant-on start:
// stopPromoter cancels it and waits.
type promoter struct {
	cancel context.CancelFunc
	done   chan struct{} // closed once the workers are gone and the drain's span has ended
}

// startPromoter runs the move loop over every table behind ALIVE, one job a
// table on the background pool, the table with the most bytes first. Called
// once per Start, after the leaf transitions ALIVE. The drain is the start
// ledger's restart.promote span, ended by whichever comes first: the last
// table drained, or stopPromoter. A table whose loop stops on an error keeps
// serving the blocks it has left from shm, which is always safe.
func (l *Leaf) startPromoter() {
	ctx, cancel := context.WithCancel(context.Background())
	p := &promoter{cancel: cancel, done: make(chan struct{})}
	l.mu.Lock()
	l.promo = p
	l.mu.Unlock()
	tables := l.tablesSorted()
	sp := l.restart.Begin(obs.PhasePromote, "", -1)
	sp.Recovery = string(RecoveryShmView)
	go func() {
		size := func(i int) int64 { return tables[i].Bytes() }
		fanOut(ctx, backgroundPool, len(tables), size, func(ctx context.Context, _, i int) error { //nolint:errcheck // jobs return none
			if _, _, err := l.moveBlocks(ctx, tables[i], nil); err != nil {
				l.cfg.Obs.Event(obs.EventFail, obs.PhasePromote, tables[i].Name()+": blocks stay shm-resident: "+err.Error())
			}
			return nil
		})
		sp.Blocks = int(l.promoted.Load())
		sp.End(nil)
		close(p.done)
	}()
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
