package leaf

// Parallel copy-out/copy-in for the restart path. The paper's restart time
// is dominated by raw memory copying between heap and shared memory (§4.2),
// and that copy parallelizes across tables: each worker owns one table at a
// time, drains its row blocks into (or out of) that table's own segment,
// and the only cross-worker state — segment registration in the leaf
// metadata — is serialized under a mutex. The valid bit is still written
// exactly once, by the caller, after every worker has succeeded, so the
// commit point of Figure 6 is unchanged. Any worker error cancels the rest
// through a context and a failed shutdown removes every segment it created
// (no orphans). The way back in is recover.go's per-table loop.

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"scuba/internal/obs"
	"scuba/internal/shm"
	"scuba/internal/table"
)

// TableCopyStat is one table's share of a shutdown copy-out or a restore:
// which worker carried it, how much moved, and the time of all its steps — the
// roll-up span obs.Trace.Tables makes of the table's restart spans.
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

// copyWorkers resolves Config.CopyWorkers for a pool over the given number
// of jobs: 0 means runtime.GOMAXPROCS (this leaf's cores, not the machine's:
// the paper runs eight leaves per machine, §2), 1 preserves the serial
// behavior, and the pool never exceeds the job count.
func (l *Leaf) copyWorkers(jobs int) int {
	w := l.cfg.CopyWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if jobs > 0 && w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// largestFirst orders n jobs by descending size (ties keep their order): a
// pool fed its largest job first never ends with one worker idle while
// another has only just started on the biggest table.
func largestFirst(n int, size func(i int) int64) []int {
	sizes, order := make([]int64, n), make([]int, n)
	for i := range order {
		sizes[i], order[i] = size(i), i
	}
	sort.SliceStable(order, func(a, b int) bool { return sizes[order[a]] > sizes[order[b]] })
	return order
}

// copyOutAll fans the tables of a clean shutdown out to the copy worker
// pool — Figure 6's per-table loop, run concurrently, largest table first. On
// any failure the context cancels the remaining workers (each closes the
// segment it was writing), all of this leaf's shared memory is removed so a
// failed shutdown never leaves orphaned segments, and still-unsynced sealed
// blocks are flushed to disk best-effort so the next process's disk recovery
// misses nothing sealed. Returns the worker count used.
func (l *Leaf) copyOutAll(r *obs.Restart, tables []*table.Table, md *shm.Metadata) (int, error) {
	workers := l.copyWorkers(len(tables))
	if len(tables) == 0 {
		return workers, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		mdMu     sync.Mutex // serializes md.Segments append + metadata write
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		errMu.Unlock()
	}
	// One generation stamp for the whole shutdown: segment files are named
	// tbl-<name>.g<gen> so this backup never O_TRUNCs a file an instant-on
	// view from the previous generation may still have mapped (truncating a
	// live mapping would SIGBUS every reader). Restore finds the segments by
	// the full names recorded in the metadata; stale generations are swept as
	// orphans.
	gen := time.Now().UnixNano()
	jobs := make(chan *table.Table)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for tbl := range jobs {
				if ctx.Err() != nil {
					continue // cancelled: drain the channel without copying
				}
				if err := l.copyTableOut(ctx, r, worker, tbl, md, &mdMu, gen); err != nil {
					fail(fmt.Errorf("leaf: shutdown copy of %q: %w", tbl.Name(), err))
				}
			}
		}(w)
	}
	for _, i := range largestFirst(len(tables), func(i int) int64 { return tables[i].Bytes() }) {
		jobs <- tables[i]
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		l.shm.RemoveAll() //nolint:errcheck // valid bit never set; best effort
		l.flushBestEffort(tables)
	}
	return workers, firstErr
}

// copyTableOut runs one table through the Figure 6 backup steps on one pool
// worker: PREPARE and disk sync (sealAndPersist), then — its copy-out span,
// which counts the blocks and bytes it moves — COPY_TO_SHM, segment create +
// registration, block-at-a-time copy (releasing heap as it goes), Finish,
// DONE.
func (l *Leaf) copyTableOut(ctx context.Context, r *obs.Restart, worker int, tbl *table.Table, md *shm.Metadata, mdMu *sync.Mutex, gen int64) (err error) {
	if err := l.sealAndPersist(r, tbl, worker); err != nil {
		return err
	}
	sp := r.Begin(obs.PhaseTableCopyOut, tbl.Name(), worker)
	defer func() { sp.End(err) }()
	if err := tbl.Transition(table.StateCopyToShm); err != nil {
		return err
	}
	segName := shm.SegmentNameForTableGen(tbl.Name(), gen)
	// Figure 6: create table segment (appended to: there is no size to estimate).
	w, err := shm.CreateTableSegment(l.shm, segName, tbl.Name())
	if err != nil {
		return err
	}
	defer w.Abort() //nolint:errcheck // whatever fails below; a no-op once Finish has run
	// Figure 6: add the table segment to the leaf metadata — the one
	// cross-worker mutation, serialized under the metadata mutex.
	mdMu.Lock()
	md.Segments = append(md.Segments, shm.SegmentInfo{Table: tbl.Name(), Segment: segName})
	err = l.shm.WriteMetadata(md)
	mdMu.Unlock()
	if err != nil {
		return err
	}
	// Copy row blocks, deleting each from the heap as it lands.
	for {
		if err := ctx.Err(); err != nil { // another worker failed
			return err
		}
		if h := l.copyBlockHook; h != nil {
			if err := h(tbl.Name(), sp.Blocks); err != nil {
				return err
			}
		}
		blocks, err := tbl.DropBlocksForShutdown(1)
		if err != nil {
			return err
		}
		if len(blocks) == 0 {
			break
		}
		werr := w.WriteBlock(blocks[0], true)
		// An un-promoted shm-resident block just had its bytes copied into
		// the new generation's segment (or failed); either way it leaves the
		// table here, so release its residency reference on the old mapping.
		if src := blocks[0].Source(); src != nil {
			src.Release()
		}
		if werr != nil {
			return werr
		}
		sp.Blocks++
	}
	sp.Bytes = w.BytesCopied
	if err := w.Finish(); err != nil {
		return err
	}
	return tbl.Transition(table.StateDone)
}

// flushBestEffort writes whatever blocks are still unpersisted to the store
// after a failed shutdown, ignoring errors: the valid bit was never set, so
// the next start recovers from the store, and every block that reaches it
// here is a block not lost. Prepare seals the unsealed tail of tables the
// pool never reached (a no-op or error on tables already past PREPARE,
// which is fine — those synced before their copy began).
func (l *Leaf) flushBestEffort(tables []*table.Table) {
	if l.store == nil {
		return
	}
	for _, tbl := range tables {
		tbl.Prepare()       //nolint:errcheck
		l.persistTable(tbl) //nolint:errcheck
	}
}
