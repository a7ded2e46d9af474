package leaf

// The restart path's one worker pool, and the way out of the heap that runs on
// it. The paper's restart time is dominated by raw memory copying between heap
// and shared memory (§4.2), and that copy parallelizes across tables: each
// worker owns one table at a time and drains its row blocks into (or out of)
// that table's own segment; what the workers of a shutdown share is in backup.
// The way back in is recover.go's per-table loop, on the same pool.

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"scuba/internal/obs"
	"scuba/internal/rowblock"
	"scuba/internal/shm"
	"scuba/internal/table"
)

// TableCopyStat is one table's share of a shutdown copy-out or a restore:
// which worker carried it, how much moved, and the wall time of its steps —
// the roll-up span obs.Trace.Tables makes of the table's restart spans.
// ShutdownInfo and RecoveryInfo report one per table, sorted by table name.
type TableCopyStat = obs.Span

// fromSpans fills in what a shutdown's restart spans say about it.
func (info *ShutdownInfo) fromSpans(trace obs.Trace) {
	down := trace.Half(obs.HalfShutdown)
	info.PerTable = down.Tables()
	info.Tables = len(info.PerTable)
	info.Blocks, info.BytesCopied = down.Moved()
	info.Duration = down.Elapsed()
}

// poolKind is what a fan-out's caller already knows about it: whether
// anything waits for a core beside it, and what its first failure does.
type poolKind uint8

const (
	// startPool is Start before ALIVE: nothing is served yet, so it takes
	// every core, and a table that fails is that table's outcome alone.
	startPool poolKind = iota
	// shutdownPool is a clean shutdown: nothing is served any more, and the
	// first failure stops the rest.
	shutdownPool
	// backgroundPool runs beside queries (the promoter): it leaves one core
	// to them, so a query that parks gets a P back without waiting out a
	// preemption tick behind workers that never yield (DESIGN.md §14).
	backgroundPool
)

// fanOut is the restart path's one pool: Start's per-table recovery, both clean
// shutdowns and the promoter run on it. The n jobs are taken in descending
// order of size (ties keep their order) — a pool fed its largest job first
// never ends with one worker idle while another has only just started on the
// biggest table — by min(GOMAXPROCS, n) workers, one fewer (but at least one)
// for a backgroundPool: the pool's size is a property of the cores this
// process was given (the paper runs eight leaves a machine, §2) and of what
// runs beside it, not an option. A job not yet begun when its context ends is
// skipped: the caller's ctx, and in a shutdownPool the first error, recorded
// before the cancellation can make others, stop the rest. Returns the pool
// size and the first error.
func fanOut(ctx context.Context, kind poolKind, n int, size func(i int) int64, job func(ctx context.Context, worker, i int) error) (int, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sizes, order := make([]int64, n), make([]int, n)
	for i := range order {
		sizes[i], order[i] = size(i), i
	}
	sort.SliceStable(order, func(a, b int) bool { return sizes[order[a]] > sizes[order[b]] })
	procs := runtime.GOMAXPROCS(0)
	if kind == backgroundPool {
		procs = max(1, procs-1)
	}
	workers := min(procs, n)
	var (
		next     atomic.Int64
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for ctx.Err() == nil {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				if err := job(ctx, worker, order[k]); err != nil {
					errOnce.Do(func() {
						firstErr = err
						if kind == shutdownPool {
							cancel()
						}
					})
				}
			}
		}(w)
	}
	wg.Wait()
	return workers, firstErr
}

// backup is the shared memory side of one clean shutdown; a disk-only shutdown
// has none.
type backup struct {
	mu sync.Mutex // serializes the md.Segments append + metadata write
	md shm.Metadata
	// gen is one generation stamp for the whole shutdown: segment files are
	// named tbl-<name>.g<gen> so this backup never O_TRUNCs a file an
	// instant-on view from the previous generation may still have mapped
	// (truncating a live mapping would SIGBUS every reader). Restore finds the
	// segments by the full names recorded in the metadata; stale generations
	// are swept as orphans.
	gen int64
}

// shutdownTable takes one table out on one pool worker. PREPARE: reject new
// requests, kill deletes, wait for in-flight adds and queries, seal pending
// rows (Figure 5c). Then finish pending synchronization with the data on disk
// (§4.1): after this the store's images tile the table, which is what lets the
// next process adopt them instead of rewriting them. With a backup, Figure 6's
// copy-out runs beside that persist rather than behind it: it takes the blocks
// the persist does not touch first, oldest first, and waits for the persist
// only at the first block it is writing. Once the persist has returned the
// store holds every row, so the table's log is emptied behind it, still
// under the persist lock: the next start has none to reset. A persist error
// fails the table before the valid bit, with every unpersisted block still
// whole for the failure path to write and the log whole for the next start
// to replay.
func (l *Leaf) shutdownTable(ctx context.Context, r *obs.Restart, worker int, tbl *table.Table, b *backup) error {
	sp := r.Begin(obs.PhaseTableSeal, tbl.Name(), worker)
	err := tbl.Prepare()
	sp.End(err)
	if err != nil {
		return err
	}
	unpersisted, _ := tbl.UnpersistedBlocks()
	p := &persisting{clean: tbl.Stats().NumBlocks - len(unpersisted), done: make(chan struct{})}
	sp = r.Begin(obs.PhaseTablePersist, tbl.Name(), worker)
	go func() {
		locks := l.locksFor(tbl.Name())
		locks.persist.Lock()
		_, p.err = l.persistLocked(tbl, nil, 0)
		if p.err == nil && l.wal != nil {
			if err := l.wal.ResetTable(tbl.Name(), tbl.NextRow()); err != nil {
				// The store holds every row; the next start resets the log.
				l.cfg.Obs.Event(obs.EventFail, obs.PhaseTableLogReset+":"+tbl.Name(), err.Error())
			}
		}
		locks.persist.Unlock()
		sp.End(p.err)
		close(p.done)
	}()
	err = tbl.Transition(table.StateCopyToShm)
	if err == nil && b != nil {
		err = l.copyTableOut(ctx, r, worker, tbl, b, p)
	}
	if perr := p.wait(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	return tbl.Transition(table.StateDone)
}

// persisting is a table's shutdown persist, running beside its copy-out.
type persisting struct {
	clean int // leading blocks it does not touch: their images are written
	done  chan struct{}
	err   error
}

func (p *persisting) wait() error {
	<-p.done
	return p.err
}

// copyTableOut is one table's Figure 6 backup, its copy-out span (which counts
// the blocks and bytes it moves): segment create + registration, block-at-a-
// time copy (releasing heap as it goes), Finish. It waits for p before it
// takes the first block p writes.
func (l *Leaf) copyTableOut(ctx context.Context, r *obs.Restart, worker int, tbl *table.Table, b *backup, p *persisting) (err error) {
	sp := r.Begin(obs.PhaseTableCopyOut, tbl.Name(), worker)
	defer func() { sp.End(err) }()
	segName := shm.SegmentNameForTableGen(tbl.Name(), b.gen)
	// Figure 6: create table segment (appended to: there is no size to estimate).
	w, err := shm.CreateTableSegment(l.shm, segName, tbl.Name())
	if err != nil {
		return err
	}
	defer w.Abort() //nolint:errcheck // whatever fails below; a no-op once Finish has run
	// Figure 6: add the table segment to the leaf metadata — the one
	// cross-worker mutation.
	b.mu.Lock()
	b.md.Segments = append(b.md.Segments, shm.SegmentInfo{Table: tbl.Name(), Segment: segName})
	err = l.shm.WriteMetadata(&b.md)
	b.mu.Unlock()
	if err != nil {
		return err
	}
	// Copy row blocks, deleting each from the heap as it lands.
	for copied := 0; ; copied++ {
		if err := ctx.Err(); err != nil { // another worker failed
			return err
		}
		if copied == p.clean {
			if err := p.wait(); err != nil {
				return err
			}
		}
		blocks, starts, err := tbl.DropBlocksForShutdown(1)
		if err != nil {
			return err
		}
		if len(blocks) == 0 {
			break
		}
		werr := w.WriteBlock(blocks[0], starts[0], true)
		// An un-promoted shm-resident block just had its bytes copied into
		// the new generation's segment (or failed); either way it leaves the
		// table here, so its residency on the old mapping ends.
		rowblock.ReleaseSources(blocks)
		if werr != nil {
			return werr
		}
		sp.Blocks++
	}
	sp.Bytes = w.BytesCopied
	return w.Finish()
}
