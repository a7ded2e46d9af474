package leaf

// Instant-on restarts (DESIGN.md §14). The paper gates post-restart
// availability on the full copy-in of Figure 7 because a shm heap allocator
// was judged too invasive (§3); but the segment layout is
// one-memcpy-relocatable, so recover.go's takeFromShm maps each table segment
// read-only and decodes every block image in place, and with InstantOn it
// flips the leaf ALIVE the moment metadata + CRC validation pass instead of
// cloning the blocks first. The copy the paper blocked availability on still
// happens — as background promotion on a bounded worker pool, hottest tables
// first (per-table decode-cache hits as the heat signal), each block swapped
// for its heap clone (Leaf.cloneBlock, the eager drain's own step) without
// disturbing in-flight scans. This file is that promotion.

import (
	"runtime"
	"sort"
	"sync"

	"scuba/internal/metrics"
	"scuba/internal/obs"
	"scuba/internal/rowblock"
	"scuba/internal/table"
)

// ---- Background promotion ----

// promoter drains shm-resident blocks heap-side after an instant-on
// restore: PromoteWorkers workers each repeatedly claim the hottest table's
// oldest foreign block, clone it to the heap (pinning the view across the
// copy), and swap the clone in under the table lock. Workers exit when no
// promotable block remains; stopPromoter cuts them short for shutdown.
type promoter struct {
	l    *Leaf
	stop chan struct{}
	wg   sync.WaitGroup
	done chan struct{} // closed once the workers are gone and the drain's span has ended

	mu sync.Mutex
	// claimed guards against two workers copying one block; failed parks
	// blocks whose promotion failed (injected fault, bad checksum) so workers
	// do not spin on them — the table just keeps serving those from shm.
	claimed map[*rowblock.RowBlock]bool
	failed  map[*rowblock.RowBlock]bool

	// copyTime is restart.promote.block_us. Promotion is one span for the
	// whole drain, not one per block: the blocks are Leaf.promoted and this
	// histogram of their heap copies.
	copyTime *metrics.Histogram
}

// promoteWorkerCount resolves Config.PromoteWorkers like CopyWorkers.
func (l *Leaf) promoteWorkerCount() int {
	w := l.cfg.PromoteWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return w
}

// startPromoter launches the background promotion pool. Called once per
// Start, after the leaf transitions ALIVE. The drain is the start ledger's
// restart.promote span, ended by whichever comes first: the last block
// promoted, or stopPromoter.
func (l *Leaf) startPromoter() {
	p := &promoter{
		l:        l,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		claimed:  make(map[*rowblock.RowBlock]bool),
		failed:   make(map[*rowblock.RowBlock]bool),
		copyTime: new(metrics.Histogram),
	}
	if reg := l.cfg.Obs.Registry(); reg != nil {
		p.copyTime = reg.Histogram("restart.promote.block_us")
	}
	l.mu.Lock()
	l.promo = p
	l.mu.Unlock()
	n := l.promoteWorkerCount()
	sp := l.restart.Begin(obs.PhasePromote, "", -1)
	sp.Recovery = string(RecoveryShmView)
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go p.run()
	}
	go func() {
		p.wg.Wait()
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
		close(p.stop)
		<-p.done
	}
}

func (p *promoter) run() {
	defer p.wg.Done()
	for {
		select {
		case <-p.stop:
			return
		default:
		}
		tbl, rb := p.next()
		if rb == nil {
			return
		}
		if !p.promoteBlock(tbl, rb) {
			p.mu.Lock()
			p.failed[rb] = true
			p.mu.Unlock()
		}
		p.mu.Lock()
		delete(p.claimed, rb)
		p.mu.Unlock()
	}
}

// next claims the next block to promote: tables ranked hottest-first by
// their decode cache's hit count (ties broken by name for determinism),
// oldest block first within a table to match scan order.
func (p *promoter) next() (*table.Table, *rowblock.RowBlock) {
	l := p.l
	type cand struct {
		name string
		tbl  *table.Table
		heat int64
	}
	l.mu.Lock()
	cands := make([]cand, 0, len(l.tables))
	for name, tbl := range l.tables {
		cands = append(cands, cand{name: name, tbl: tbl, heat: l.caches[name].Hits()})
	}
	l.mu.Unlock()
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].heat != cands[j].heat {
			return cands[i].heat > cands[j].heat
		}
		return cands[i].name < cands[j].name
	})
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range cands {
		for _, rb := range c.tbl.Blocks() {
			if rb.Source() == nil || p.claimed[rb] || p.failed[rb] {
				continue
			}
			p.claimed[rb] = true
			return c.tbl, rb
		}
	}
	return nil, nil
}

// promoteBlock moves one shm-resident block heap-side: clone, swap, release
// the table's residency reference. Returns false when the block could not be
// promoted — the table keeps serving it from shm, which is always safe.
func (p *promoter) promoteBlock(tbl *table.Table, rb *rowblock.RowBlock) bool {
	var clone *rowblock.RowBlock
	var err error
	p.copyTime.Time(func() { clone, err = p.l.cloneBlock(tbl.Name(), rb, true) })
	if err != nil {
		p.l.cfg.Obs.Event(obs.EventFail, obs.PhasePromote, tbl.Name()+": block stays shm-resident: "+err.Error())
		return false
	}
	if !tbl.SwapBlock(rb, clone) {
		// The block left the table (expiry, shutdown) while we copied;
		// whoever removed it released its residency reference. Count the
		// attempt as handled — the block will not be seen again.
		return true
	}
	// The swap took the old block out of circulation; release its residency
	// reference (scans that snapshotted it still hold their own pins).
	rowblock.ReleaseSources([]*rowblock.RowBlock{rb})
	p.l.promoted.Add(1)
	return true
}
