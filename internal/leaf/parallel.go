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
	"strings"
	"sync"
	"time"

	"scuba/internal/obs"
	"scuba/internal/shm"
	"scuba/internal/table"
)

// TableCopyStat is one table's share of a shutdown copy-out or a restore
// copy-in: which worker carried it and how much moved. ShutdownInfo and
// RecoveryInfo report one entry per table, sorted by table name.
type TableCopyStat struct {
	Table    string
	Worker   int
	Blocks   int
	Bytes    int64
	Duration time.Duration
}

// copyWorkers resolves Config.CopyWorkers for a pool over the given number
// of jobs: 0 means runtime.NumCPU(), 1 preserves the serial behavior, and
// the pool never exceeds the job count.
func (l *Leaf) copyWorkers(jobs int) int {
	w := l.cfg.CopyWorkers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if jobs > 0 && w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// recordCopyWorker publishes one worker's copy volume and busy time as
// gauges (leaf<ID>.<phase>.worker<k>.bytes / .busy_us).
func (l *Leaf) recordCopyWorker(phase string, worker int, bytes int64, busy time.Duration) {
	r := l.cfg.Metrics
	if r == nil {
		return
	}
	prefix := fmt.Sprintf("leaf%d.%s.worker%d.", l.cfg.ID, phase, worker)
	r.Gauge(prefix + "bytes").Set(bytes)
	r.Gauge(prefix + "busy_us").SetDuration(busy)
}

// recordTableCopy publishes one table's copy to the observer: a begin/end (or
// fail) event pair in the flight recorder — so a crash mid-copy pins down the
// table and block it died in — and the table's duration in a per-phase
// histogram (restart.copy_out.table_us, restart.copy_in.table_us, …) whose
// p50/p95/p99 show the per-table spread behind the whole-leaf span. half is
// "copy-out", "copy-in", "view" or "disk".
func (l *Leaf) recordTableCopy(half string, st TableCopyStat, err error) {
	o := l.cfg.Obs
	phase := obs.PerTablePhase(half, st.Table)
	if err != nil {
		o.Event(obs.EventFail, phase,
			fmt.Sprintf("worker %d, after %d blocks (%d bytes): %v", st.Worker, st.Blocks, st.Bytes, err))
		return
	}
	o.Event(obs.EventEnd, phase,
		fmt.Sprintf("worker %d, %d blocks, %d bytes in %v", st.Worker, st.Blocks, st.Bytes, st.Duration))
	if reg := o.Registry(); reg != nil {
		// restart.copy_out / .copy_in / .view / .disk .table_us
		reg.Histogram("restart." + strings.ReplaceAll(half, "-", "_") + ".table_us").ObserveDuration(st.Duration)
	}
}

// copyOutAll fans the tables of a clean shutdown out to the copy worker
// pool — Figure 6's per-table loop, run concurrently. On any failure the
// context cancels the remaining workers, every segment writer created so
// far is aborted (a no-op for the already-finished ones), all of this
// leaf's shared memory is removed so a failed shutdown never leaves
// orphaned segments, and still-unsynced sealed blocks are flushed to disk
// best-effort so the next process's disk recovery misses nothing sealed.
// Returns per-table stats (sorted by name) and the worker count used.
func (l *Leaf) copyOutAll(tables []*table.Table, md *shm.Metadata) ([]TableCopyStat, int, error) {
	workers := l.copyWorkers(len(tables))
	if len(tables) == 0 {
		return nil, workers, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		mdMu      sync.Mutex // serializes md.Segments append + metadata write
		statsMu   sync.Mutex
		stats     []TableCopyStat
		writersMu sync.Mutex
		writers   []*shm.TableSegmentWriter
		errMu     sync.Mutex
		firstErr  error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		errMu.Unlock()
	}
	track := func(w *shm.TableSegmentWriter) {
		writersMu.Lock()
		writers = append(writers, w)
		writersMu.Unlock()
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
			busy := time.Now()
			var bytes int64
			for tbl := range jobs {
				if ctx.Err() != nil {
					continue // cancelled: drain the channel without copying
				}
				l.cfg.Obs.Event(obs.EventBegin, obs.PerTablePhase("copy-out", tbl.Name()),
					fmt.Sprintf("worker %d", worker))
				st, err := l.copyTableOut(ctx, tbl, md, &mdMu, track, gen)
				st.Worker = worker
				l.recordTableCopy("copy-out", st, err)
				if err != nil {
					fail(fmt.Errorf("leaf: shutdown copy of %q: %w", tbl.Name(), err))
					continue
				}
				bytes += st.Bytes
				statsMu.Lock()
				stats = append(stats, st)
				statsMu.Unlock()
			}
			l.recordCopyWorker("shutdown", worker, bytes, time.Since(busy))
		}(w)
	}
	for _, tbl := range tables {
		jobs <- tbl
	}
	close(jobs)
	wg.Wait()
	sort.Slice(stats, func(i, j int) bool { return stats[i].Table < stats[j].Table })
	if firstErr != nil {
		for _, w := range writers {
			w.Abort() //nolint:errcheck // idempotent; finished writers no-op
		}
		l.shm.RemoveAll() //nolint:errcheck // valid bit never set; best effort
		l.flushBestEffort(tables)
		return stats, workers, firstErr
	}
	return stats, workers, nil
}

// copyTableOut runs one table through the Figure 6 backup steps: PREPARE,
// disk sync, COPY_TO_SHM, segment create + registration, block-at-a-time
// copy (releasing heap as it goes), Finish, DONE.
func (l *Leaf) copyTableOut(ctx context.Context, tbl *table.Table, md *shm.Metadata, mdMu *sync.Mutex, track func(*shm.TableSegmentWriter), gen int64) (TableCopyStat, error) {
	st := TableCopyStat{Table: tbl.Name()}
	start := time.Now()
	// PREPARE: reject new requests, kill deletes, wait for in-flight
	// adds/queries, seal pending rows (Figure 5c).
	if err := tbl.Prepare(); err != nil {
		return st, err
	}
	// Finish pending synchronization with the data on disk (§4.1): after
	// this the store's images tile the table, which is what lets the next
	// process adopt them instead of rewriting them.
	if l.store != nil {
		if _, err := l.persistTable(tbl); err != nil {
			return st, err
		}
	}
	if err := tbl.Transition(table.StateCopyToShm); err != nil {
		return st, err
	}
	segName := shm.SegmentNameForTableGen(tbl.Name(), gen)
	// Figure 6: estimate size of table, create table segment.
	w, err := shm.CreateTableSegment(l.shm, segName, tbl.Name(), tbl.Bytes()+4096)
	if err != nil {
		return st, err
	}
	track(w)
	// Figure 6: add the table segment to the leaf metadata — the one
	// cross-worker mutation, serialized under the metadata mutex.
	mdMu.Lock()
	md.Segments = append(md.Segments, shm.SegmentInfo{Table: tbl.Name(), Segment: segName})
	err = l.shm.WriteMetadata(md)
	mdMu.Unlock()
	if err != nil {
		w.Abort() //nolint:errcheck
		return st, err
	}
	// Copy row blocks, deleting each from the heap as it lands.
	for {
		if err := ctx.Err(); err != nil { // another worker failed
			w.Abort() //nolint:errcheck
			return st, err
		}
		if h := l.copyBlockHook; h != nil {
			if err := h(tbl.Name(), st.Blocks); err != nil {
				w.Abort() //nolint:errcheck
				return st, err
			}
		}
		blocks, err := tbl.DropBlocksForShutdown(1)
		if err != nil {
			w.Abort() //nolint:errcheck
			return st, err
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
			w.Abort() //nolint:errcheck
			return st, werr
		}
		st.Blocks++
	}
	st.Bytes = w.BytesCopied
	if err := w.Finish(); err != nil {
		return st, err
	}
	if err := tbl.Transition(table.StateDone); err != nil {
		return st, err
	}
	st.Duration = time.Since(start)
	return st, nil
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
