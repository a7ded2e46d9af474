// Package leaf implements a Scuba leaf server (§2, §4). A leaf stores a
// fraction of most tables, ingests new rows, answers queries, expires old
// data, and — the contribution of the paper — restarts fast by staging its
// tables through shared memory across planned process restarts:
//
//   - Shutdown (Figure 6): copy every table from heap to shared memory one
//     row block column at a time, freeing heap as it goes, then set the
//     valid bit and exit.
//   - Restart (Figure 7): if the valid bit is set, clear it, map each table
//     segment read-only and put its blocks into the table in place, then
//     move them to the heap newest first — before ALIVE, or with InstantOn
//     behind it — while each segment's file shrinks behind them and goes
//     with its last block (instanton.go); otherwise load the block images in
//     the disk store and replay the write-ahead log's tail (recover.go).
//
// Crashes never recover from shared memory — the crash may have been caused
// by memory corruption — so the valid bit is only ever set by a completed
// clean shutdown and cleared the moment a restore begins.
package leaf

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"scuba/internal/disk"
	"scuba/internal/fault"
	"scuba/internal/metrics"
	"scuba/internal/obs"
	"scuba/internal/query"
	"scuba/internal/rowblock"
	"scuba/internal/shard"
	"scuba/internal/shm"
	"scuba/internal/table"
	"scuba/internal/wal"
)

// Config configures a leaf server.
type Config struct {
	// ID is the leaf's identity on this machine; it fixes the shared
	// memory metadata location (§4.2). Machines run eight leaves, IDs 0-7.
	ID int
	// Shm configures the shared memory manager (directory, namespace).
	Shm shm.Options
	// DiskRoot is the root of the block image store, the one persistent
	// home of sealed blocks. Required: a leaf without one would keep no row
	// across a crash or a disk-bound shutdown.
	DiskRoot string
	// WALDir enables the per-table write-ahead log rooted there (a leaf<ID>
	// subdirectory is created); the log is truncated behind the images in
	// DiskRoot. Empty disables the WAL: a crash loses the rows acked since
	// their table's last persist, the paper's durability model.
	WALDir string
	// WALSyncInterval does nothing: a batch's fsync is led by the first
	// waiter that finds none in flight (internal/wal), not run on a clock.
	// It stays only because bench/ sets it, and goes with the other
	// forwards kept for bench/.
	WALSyncInterval time.Duration
	// Table sets default retention for new tables.
	Table table.Options
	// MemoryBudget is the nominal data capacity in bytes, reported to
	// tailers as free memory for placement decisions (§2).
	MemoryBudget int64
	// DisableMemoryRecovery forces disk recovery on start (Figure 5b's
	// "memory recovery disabled" edge).
	DisableMemoryRecovery bool
	// InstantOn says when a shm restore moves its blocks to the heap. Either
	// way segments are mapped read-only and their metadata validated, each
	// block's columns are checked by their first reader, and one loop a table
	// clones the blocks heap-side newest first. Off, that loop runs before
	// ALIVE — the paper's eager copy-in; on, tables serve queries zero-copy
	// from the mappings the moment the metadata passes, and the loop runs in
	// the background, largest table first.
	InstantOn bool
	// DecodeCacheBytes budgets the leaf's one LRU of decoded columns, shared
	// by its tables, that lets repeated queries (dashboards) skip
	// LZ4/dictionary decode. 0 disables the cache.
	DecodeCacheBytes int64
	// Metrics, when non-nil, receives the query-path, WAL and promotion
	// metrics; without it they land in Obs's registry (nil for both: none).
	Metrics *metrics.Registry
	// Obs, when non-nil, receives the restart ledger's spans — every phase of
	// Shutdown and Start, per table and worker — as registry timers named
	// after the phase (restart.copy_out, restart.table.copy_out, ...),
	// begin/end/fail events in its flight recorder, __system.traces rows and
	// the profiler's over-budget trigger (obs.ActiveSpan.End). Point its registry at
	// Metrics so /metrics shows both. With a nil Obs the ledger still backs
	// RecoveryInfo and ShutdownInfo and feeds nothing else.
	Obs *obs.Observer
	// Clock supplies unix seconds; nil means time.Now. Tests and the
	// cluster simulator inject virtual clocks.
	Clock func() int64
}

// RecoveryPath says how a leaf came up.
type RecoveryPath string

// Recovery paths.
const (
	RecoveryNone   RecoveryPath = "none"   // nothing to recover
	RecoveryMemory RecoveryPath = "memory" // restored from shared memory
	RecoveryDisk   RecoveryPath = "disk"   // restored from the store's images alone
	// RecoveryMixed means the tables took different paths: most often shared
	// memory for all but the ones whose segments failed validation, which
	// were quarantined to the store.
	RecoveryMixed RecoveryPath = "mixed"
	// RecoveryWAL means the leaf came back from a crash via the store's
	// images plus write-ahead-log replay — crash-path parity with the fast
	// clean restart: no acked row lost.
	RecoveryWAL RecoveryPath = "wal"
	// RecoveryShmView means an instant-on restore: the leaf went ALIVE
	// serving queries zero-copy from mmap'd shm views after only metadata +
	// CRC validation, with the heap copy still running in the background.
	RecoveryShmView RecoveryPath = "shm-view"
)

// TableRecovery reports how one table came back.
type TableRecovery struct {
	Table string
	Path  RecoveryPath
	// Reason says what the table's recovery had to work around: why its shm
	// segment was rejected, which block was replaced or dropped, which image
	// file was damaged, why its log tail was not replayed.
	Reason string `json:",omitempty"`
	// BlocksReplaced counts segment blocks that failed their check when first
	// read and were replaced by the store's image of the same rows — before
	// ALIVE or after it. BlocksDropped and RowsDropped count the blocks, and
	// their rows, the table lost: a damaged segment block the store had no
	// image of, or a store image that would not decode.
	BlocksReplaced int   `json:",omitempty"`
	BlocksDropped  int   `json:",omitempty"`
	RowsDropped    int64 `json:",omitempty"`
}

// RecoveryInfo reports what Start did, for dashboards and benchmarks. What it
// says about time and volume — Tables, Blocks, BytesRestored, Duration,
// PerTable, SnapshotBlocks — is read off the restart ledger's spans
// (fromSpans); the rest is what recovery decided.
type RecoveryInfo struct {
	Path          RecoveryPath
	Tables        int
	Blocks        int
	BytesRestored int64
	// Duration runs from Start's first instruction to ALIVE.
	Duration time.Duration
	// FellBack is set when memory recovery was attempted but the metadata
	// could not be read, sending every table to the store (Figure 5b).
	FellBack bool
	// Workers is the recovery pool size (0 when there was nothing to
	// restore).
	Workers int
	// PerTable breaks the restore down by table, sorted by table name.
	PerTable obs.Trace
	// PerTablePath says which path each table took (all "memory" on a clean
	// shm restore; a mix after quarantines), sorted by table name. Path is
	// derived from it.
	PerTablePath []TableRecovery `json:",omitempty"`
	// Quarantined counts tables whose shm segments failed validation and
	// were re-read from the store instead.
	Quarantined int `json:",omitempty"`
	// WALRecords / WALRowsReplayed / SnapshotBlocks break a store recovery
	// down: how many log records and rows replayed, and how many block
	// images loaded ahead of the replay.
	WALRecords      int   `json:",omitempty"`
	WALRowsReplayed int64 `json:",omitempty"`
	SnapshotBlocks  int   `json:",omitempty"`
	// ServedFromShm counts blocks currently served zero-copy from mmap'd shm
	// views (instant-on); it drains toward zero as promotion moves blocks
	// heap-side. Recovery() reports the live value.
	ServedFromShm int64 `json:"served_from_shm"`
	// PromotedBlocks counts view blocks the move loop has swapped for heap
	// clones since the last instant-on restore. Live value.
	PromotedBlocks int64 `json:"promoted_blocks"`
}

// ShutdownInfo reports what a clean shutdown did, read off the restart
// ledger's spans (fromSpans). Tables, Blocks and BytesCopied count what went
// to shared memory: zero on the disk-only path.
type ShutdownInfo struct {
	Tables      int
	Blocks      int
	BytesCopied int64
	Duration    time.Duration
	// ToShm is false when the leaf shut down without shared memory
	// (disk-only path).
	ToShm bool
	// Workers is the pool size the shutdown ran with.
	Workers int
	// PerTable breaks the copy-out down by table, sorted by table name.
	PerTable obs.Trace
}

// ErrNotAlive is returned for requests while the leaf is restarting or has
// exited.
var ErrNotAlive = errors.New("leaf: not accepting requests in current state")

// ErrTableName refuses a table name that the store, the log or a segment
// file cannot carry.
var ErrTableName = errors.New("leaf: unusable table name")

// Leaf is one leaf server.
type Leaf struct {
	cfg   Config
	shm   *shm.Manager
	store *disk.Store
	wal   *wal.Log // nil when the WAL is disabled
	// cache holds every table's decoded columns (nil when
	// Config.DecodeCacheBytes is 0); each table's evict hook drops a block's
	// entries as it expires or leaves during shutdown copy-out.
	cache *query.DecodeCache
	// walReady gates ingest-path WAL appends until Start has set every log's
	// cursor to what recovery restored; appends before that would land at
	// stale row indexes.
	walReady atomic.Bool

	mu     sync.Mutex
	state  State
	tables map[string]*table.Table
	locks  map[string]*tableLocks

	recovery RecoveryInfo

	// promo is the background promotion pool after an instant-on restore
	// (nil otherwise); promoted counts blocks it has moved heap-side.
	promo    *promoter
	promoted atomic.Int64
	// restart is the ledger of the last Start (nil before it). firstAnswer is
	// its last gap span, open from ALIVE until the first successful query
	// ends it; the flag makes that happen exactly once.
	restart        *obs.Restart
	firstAnswer    *obs.ActiveSpan
	firstQueryOpen atomic.Bool
}

// ErrNoDiskRoot rejects a Config with DiskRoot empty: sealed blocks, and the
// write-ahead log's truncation point, live in the store there.
var ErrNoDiskRoot = errors.New("leaf: DiskRoot is empty: every leaf keeps its sealed blocks in a block store there")

// New creates a leaf in INIT. Call Start to run recovery and go ALIVE.
func New(cfg Config) (*Leaf, error) {
	if cfg.DiskRoot == "" {
		return nil, ErrNoDiskRoot
	}
	if cfg.Clock == nil {
		cfg.Clock = func() int64 { return time.Now().Unix() }
	}
	store, err := disk.NewStore(cfg.DiskRoot, cfg.ID)
	if err != nil {
		return nil, err
	}
	l := &Leaf{
		cfg:    cfg,
		shm:    shm.NewManager(cfg.ID, cfg.Shm),
		store:  store,
		state:  StateInit,
		tables: make(map[string]*table.Table),
		locks:  make(map[string]*tableLocks),
	}
	l.cache = query.NewDecodeCache(cfg.DecodeCacheBytes, l.registry())
	if cfg.WALDir != "" {
		w, err := wal.Open(filepath.Join(cfg.WALDir, fmt.Sprintf("leaf%d", cfg.ID)), wal.Options{Metrics: l.registry()})
		if err != nil {
			return nil, err
		}
		l.wal = w
	}
	return l, nil
}

// ID returns the leaf's identity.
func (l *Leaf) ID() int { return l.cfg.ID }

// State returns the current leaf state.
func (l *Leaf) State() State {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state
}

// Recovery returns what the last Start did. ServedFromShm and
// PromotedBlocks are live: an instant-on restore keeps promoting in the
// background, so dashboards polling /debug/recovery watch the residual shm
// residency drain to zero.
func (l *Leaf) Recovery() RecoveryInfo {
	l.mu.Lock()
	info := l.recovery
	// Replacements after ALIVE update the leaf's record in place.
	info.PerTablePath = slices.Clone(info.PerTablePath)
	l.mu.Unlock()
	if info.Path == RecoveryShmView || info.ServedFromShm > 0 {
		var resident int64
		for _, t := range l.tablesSorted() {
			resident += int64(t.ForeignBlocks())
		}
		info.ServedFromShm = resident
		info.PromotedBlocks = l.promoted.Load()
	}
	return info
}

// RestartTrace returns the restart ledger as this process holds it, in start
// order: the shutdown half its Start adopted from the predecessor's flight
// recorder, then its own start half so far. Nil before Start.
func (l *Leaf) RestartTrace() obs.Trace {
	l.mu.Lock()
	r := l.restart
	l.mu.Unlock()
	return r.Spans()
}

func (l *Leaf) transition(to State) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.transitionLocked(to)
}

func (l *Leaf) transitionLocked(to State) error {
	if !CanTransition(l.state, to) {
		return &ErrBadTransition{From: l.state, To: to}
	}
	l.state = to
	return nil
}

// ---- Backup path (Figure 6) ----

// Shutdown performs a clean shutdown through shared memory, implementing
// Figure 6: flush to disk, copy every table to its segment (releasing heap
// as it goes) on the pool, set the valid bit, and move the leaf to EXIT. After
// Shutdown returns the process can exec its replacement. On failure no shared
// memory survives — the next start recovers from disk. Every step is a span of
// a new restart ledger, which the next process's Start continues.
func (l *Leaf) Shutdown() (ShutdownInfo, error) { return l.shutdown(true) }

// ShutdownToDisk performs a clean shutdown without shared memory: flush all
// tables to disk and exit. The next start recovers from disk. This is the
// pre-paper upgrade path and the baseline in every restart experiment.
func (l *Leaf) ShutdownToDisk() (ShutdownInfo, error) { return l.shutdown(false) }

// shutdown is the one way out: every table sealed and persisted on the pool
// and, toShm, copied out between the metadata's two writes.
func (l *Leaf) shutdown(toShm bool) (info ShutdownInfo, err error) {
	r := l.cfg.Obs.Restart(obs.HalfShutdown)
	info.ToShm = toShm
	defer func() { info.fromSpans(r.Spans()) }()
	// Stop background promotion before touching any table — a promotion
	// mid-copy must not race the copy-out's block drain — and stop accepting
	// requests.
	sp := r.Begin(obs.PhaseQuiesce, "", -1)
	l.stopPromoter()
	err = l.transition(StateCopyToShm)
	sp.End(err)
	if err != nil {
		return info, err
	}
	tables := l.tablesSorted()
	var b *backup
	if toShm {
		// Figure 6: create the leaf metadata with the valid bit false. It only
		// becomes true after every table is safely in shared memory.
		sp = r.Begin(obs.PhaseCopyOut, "", -1)
		b = &backup{md: shm.Metadata{Version: shm.LayoutVersion, Created: l.cfg.Clock()}, gen: time.Now().UnixNano()}
		err = l.shm.WriteMetadata(&b.md)
	}
	if err == nil {
		heap := func(i int) int64 { return tables[i].Bytes() }
		// The first failure stops the other workers, each closing the segment
		// it was writing.
		info.Workers, err = fanOut(context.Background(), shutdownPool, len(tables), heap, func(ctx context.Context, worker, i int) error {
			if err := l.shutdownTable(ctx, r, worker, tables[i], b); err != nil {
				return fmt.Errorf("leaf: shutdown of %q: %w", tables[i].Name(), err)
			}
			return nil
		})
	}
	if toShm {
		sp.End(err)
		if err == nil {
			// Figure 6: set valid bit to true — the commit point, written
			// exactly once, after every worker has finished.
			sp = r.Begin(obs.PhaseCommit, "", -1)
			b.md.Valid = true
			err = l.shm.WriteMetadata(&b.md)
			sp.End(err)
		}
	}
	if err != nil {
		// The one failure path. The valid bit never landed, so the next start
		// recovers from the store, and every block that reaches it here is a
		// block not lost: write whatever is still unpersisted, ignoring errors.
		// Prepare seals the unsealed tail of tables the pool never reached (a
		// no-op or error on tables already past PREPARE, which is fine — those
		// synced before their copy began). And leave no shared memory behind,
		// orphaned segments included.
		for _, tbl := range tables {
			tbl.Prepare()       //nolint:errcheck
			l.persistTable(tbl) //nolint:errcheck
		}
		l.shm.RemoveAll() //nolint:errcheck // best effort
		return info, err
	}
	sp = r.Begin(obs.PhaseExit, "", -1)
	if !toShm {
		// No shm data: make sure stale segments from older runs cannot be used.
		err = l.shm.RemoveAll()
	}
	if err == nil {
		l.mu.Lock()
		l.tables = make(map[string]*table.Table)
		l.locks = make(map[string]*tableLocks)
		l.mu.Unlock()
		// Tables still holding shm-resident blocks (a disk-bound shutdown
		// before promotion drained) release their residency references here so
		// the mappings unmap once the last in-flight scan finishes; copy-out
		// drained every block through DropBlocksForShutdown already.
		for _, t := range tables {
			rowblock.ReleaseSources(t.Blocks())
		}
		if l.wal != nil {
			// Every table's log is empty: each was reset behind its table's
			// persist, whose watermark is fsynced before the log goes, so if
			// the process crashes before (or during) the next restore, the
			// store holds everything the shm backup does.
			l.walReady.Store(false)
			l.wal.Close() //nolint:errcheck // shutdown teardown; appends already acked are synced
		}
		err = l.transition(StateExit)
	}
	sp.End(err)
	return info, err
}

func (l *Leaf) tablesSorted() []*table.Table {
	l.mu.Lock()
	defer l.mu.Unlock()
	names := make([]string, 0, len(l.tables))
	for name := range l.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*table.Table, len(names))
	for i, name := range names {
		out[i] = l.tables[name]
	}
	return out
}

// ---- Normal operation ----

// acceptingAdds mirrors §4.1/§4.3: adds flow while alive and during disk
// recovery; nothing is accepted during the seconds of memory recovery.
func (l *Leaf) acceptingAdds() bool {
	return l.state == StateAlive || l.state == StateDiskRecovery
}

// AddRows ingests rows held in process — the facade, the self-telemetry
// sink — by transposing them into a
// batch and taking the same path as AddBatch. Rows that disagree among
// themselves on a column's type are rejected whole with
// rowblock.ErrTypeConflict before anything is logged or applied.
func (l *Leaf) AddRows(tableName string, rows []rowblock.Row) error {
	b, err := rowblock.FromRows(rows)
	if err != nil {
		return err
	}
	return l.addBatch(tableName, b, nil)
}

// AddBatch ingests one batch frame as it arrived over the wire, creating
// the table on first use, and returns the number of rows it held. The frame
// is decoded once; with the WAL on, the same bytes become the log record.
func (l *Leaf) AddBatch(tableName string, frame []byte) (int, error) {
	b, err := rowblock.DecodeFrame(frame)
	if err != nil {
		return 0, err
	}
	return b.Rows(), l.addBatch(tableName, b, frame)
}

// checkTableName refuses a new table whose name would not come back from a
// restart: an empty one, one the store's and the log's directory names (and
// the segment's) do not decode back to — invalid UTF-8, a rune above U+FFFF
// — or one whose segment file name would pass a file name's 255 bytes.
func (l *Leaf) checkTableName(name string) error {
	switch {
	case name == "":
		return fmt.Errorf("%w: empty", ErrTableName)
	case disk.DecodeTableName(disk.EncodeTableName(name)) != name:
		return fmt.Errorf("%w: %q is not valid UTF-8 of runes up to U+FFFF", ErrTableName, name)
	case !l.shm.TableFits(name):
		return fmt.Errorf("%w: %q makes a segment file name longer than 255 bytes", ErrTableName, name)
	}
	return nil
}

// addBatch is the single ingest entry point: b is the decoded batch, frame
// its encoding (nil when the caller held rows, not bytes; encoded here only
// if the WAL needs it).
func (l *Leaf) addBatch(tableName string, b *rowblock.Batch, frame []byte) error {
	l.mu.Lock()
	if !l.acceptingAdds() {
		st := l.state
		l.mu.Unlock()
		return fmt.Errorf("%w: %v", ErrNotAlive, st)
	}
	tbl, ok := l.tables[tableName]
	if !ok {
		if err := l.checkTableName(tableName); err != nil {
			l.mu.Unlock()
			return err
		}
		tbl = table.New(tableName, l.cfg.Table)
		l.tables[tableName] = tbl
	}
	useWAL := l.wal != nil && l.walReady.Load()
	l.mu.Unlock()
	if !ok {
		tbl.SetEvictHook(l.cache.InvalidateBlocks)
	}
	locks := l.locksFor(tableName)
	if useWAL && frame == nil {
		frame = b.AppendFrame(nil)
	}
	// Log before apply, under the table's ingest lock: the lock makes WAL
	// record order equal table apply order (concurrent batches to one table
	// otherwise interleave the two differently, and crash replay would
	// splice them wrongly around the image watermark). The durability
	// wait happens after the lock drops, so concurrent appenders still
	// share group-commit fsyncs. A batch that fills the builder seals a
	// block: the log rotates before it, so that the persist behind the seal
	// truncates every log row the new image holds.
	locks.ingest.Lock()
	seals := tbl.Stats().Unsealed+b.Rows() >= rowblock.MaxRows
	var commit *wal.Commit
	var err error
	if useWAL && seals {
		err = l.wal.Rotate(tableName)
	}
	if useWAL && err == nil {
		commit, err = l.wal.Begin(tableName, frame, b.Rows())
	}
	if err == nil {
		err = tbl.AddBatch(b, l.cfg.Clock())
		if err != nil && useWAL {
			// The table rejected a batch the log already holds: the log's row
			// indexes no longer mirror the table. Quarantine it, degrading that
			// one table's crash recovery to its images alone until the next
			// restart resets its log. If even the quarantine marker cannot be
			// persisted, the WAL keeps nacking the table — surface that too.
			if qerr := l.wal.Quarantine(tableName); qerr != nil {
				err = errors.Join(err, qerr)
			}
		}
	}
	locks.ingest.Unlock()
	if err != nil {
		return err
	}
	if seals {
		l.persistBehind(tbl)
	}
	if commit == nil {
		// No WAL, or a quarantined log: the batch is applied but not
		// WAL-covered; acked under the pre-WAL durability model (disk
		// write-behind).
		return nil
	}
	return commit.Wait()
}

// Query answers q over this leaf's whole copy of the logical table, without
// the execution report.
func (l *Leaf) Query(q *query.Query) (*query.Result, error) {
	res, _, err := l.QueryShards(q, nil, obs.TraceContext{})
	return res, err
}

// QueryTraced is Query with the execution report, its span ID echoed from tc.
func (l *Leaf) QueryTraced(q *query.Query, tc obs.TraceContext) (*query.Result, *obs.ExecStats, error) {
	return l.QueryShards(q, nil, tc)
}

// QueryShards is the leaf's one query entry. With no shards it runs q
// against the logical table; with shards it runs q against each named shard,
// stored leaf-side as a physical table (shard.PhysicalTable), and merges the
// per-shard partials. A table this leaf has never ingested contributes an
// empty partial, not an error — partial-result semantics — so a replica that
// owns a shard but hasn't received data for it answers cleanly.
//
// The execution report is what the wire protocol ships back for the trace's
// leaf span: phase times and work counters summed across the tables queried,
// Table the logical name, the span ID echoed from tc so the aggregator can
// slot the report into its trace, ShardsServed the fan-in, and Recovery
// "mixed" when the shards recovered from different sources.
func (l *Leaf) QueryShards(q *query.Query, shards []int, tc obs.TraceContext) (*query.Result, *obs.ExecStats, error) {
	start := time.Now()
	tables := []string{q.Table}
	if len(shards) > 0 {
		tables = make([]string, len(shards))
		for i, s := range shards {
			tables[i] = shard.PhysicalTable(q.Table, s)
		}
	}
	var merged *query.Result
	recovery := ""
	for _, name := range tables {
		tq := *q
		tq.Table = name
		res, err := l.queryTable(&tq)
		if err != nil {
			return nil, nil, err
		}
		if merged == nil {
			merged = res
		} else {
			merged.Merge(res)
		}
		switch src := l.tableRecoverySource(name); {
		case recovery == "":
			recovery = src
		case recovery != src:
			recovery = "mixed"
		}
	}
	return merged, merged.ExecStats(tc.SpanID, q.Table, recovery, time.Since(start), len(shards)), nil
}

// queryTable executes q against one physical table.
func (l *Leaf) queryTable(q *query.Query) (*query.Result, error) {
	if fault.Enabled() {
		if err := fault.Inject(fault.SiteLeafQuery); err != nil {
			return nil, err
		}
		if err := fault.Inject(fault.PerLeaf(fault.SiteLeafQuery, l.cfg.ID)); err != nil {
			return nil, err
		}
	}
	l.mu.Lock()
	if !l.acceptingAdds() { // queries gate the same way as adds at leaf level
		st := l.state
		l.mu.Unlock()
		return nil, fmt.Errorf("%w: %v", ErrNotAlive, st)
	}
	tbl, ok := l.tables[q.Table]
	l.mu.Unlock()
	if !ok {
		if err := q.Validate(); err != nil {
			return nil, err
		}
		l.observeFirstQuery()
		return &query.Result{}, nil
	}
	for {
		res, err := query.Execute(tbl, q, query.ExecOptions{Cache: l.cache, Metrics: l.registry()})
		if err != nil {
			var dmg *rowblock.DamagedError
			if errors.As(err, &dmg) && l.replaceDamaged(tbl, dmg.Block, dmg.Err, nil) {
				continue // the answer is the one without the damaged bytes
			}
			return nil, err
		}
		l.observeFirstQuery()
		return res, nil
	}
}

// observeFirstQuery ends the restart's last gap span exactly once per Start,
// at the first successfully answered query: the availability gap the paper's
// restarts pay in full copy-in time and the instant-on path collapses to the
// view-open cost is the sum of the ledger's top-level spans up to here.
func (l *Leaf) observeFirstQuery() {
	if l.firstQueryOpen.CompareAndSwap(true, false) {
		l.firstAnswer.End(nil)
	}
}

// RecoveryQuarantined is the recovery source the execution report names for a
// table that came from the store for a reason: its shm segment failed
// validation, or its backup was of another layout.
const RecoveryQuarantined = "quarantined"

// tableRecoverySource reports where a table's data came from on the last
// Start: the per-table path when a mixed recovery recorded one (with
// quarantined tables called out), else the leaf-wide path. A table served
// from shm keeps its path whatever its reason says (a replaced block).
func (l *Leaf) tableRecoverySource(tableName string) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, tr := range l.recovery.PerTablePath {
		if tr.Table != tableName {
			continue
		}
		if tr.Reason != "" && tr.Path != RecoveryMemory && tr.Path != RecoveryShmView {
			return RecoveryQuarantined
		}
		return string(tr.Path)
	}
	return string(l.recovery.Path)
}

// registry picks the registry the leaf's own metrics (query path, WAL,
// promotion) land in: Config.Metrics when set, else the observer's (nil
// disables them).
func (l *Leaf) registry() *metrics.Registry {
	if l.cfg.Metrics != nil {
		return l.cfg.Metrics
	}
	return l.cfg.Obs.Registry()
}

// SealAll force-seals in-progress builders on all tables (benchmarks use it
// to make data sizes deterministic).
func (l *Leaf) SealAll() error {
	for _, tbl := range l.tablesSorted() {
		if err := tbl.SealActive(); err != nil {
			return err
		}
	}
	return nil
}

// tableLocks are one table's leaf-side locks.
type tableLocks struct {
	// ingest spans the WAL record reservation and the table apply in
	// addBatch: WAL record order must equal table row order, or crash replay
	// splices batches wrongly around the image watermark.
	ingest sync.Mutex
	// persist serializes what writes or deletes the table's images: the
	// persister, SyncToDisk, shutdown and expiry's DropBelow. Without it an
	// image written for a block expiry has just dropped would bring the block
	// back after a crash, and two persists could interleave the watermark's
	// read and write.
	persist sync.Mutex
}

// locksFor returns the table's locks, creating them on first use.
func (l *Leaf) locksFor(name string) *tableLocks {
	l.mu.Lock()
	defer l.mu.Unlock()
	tl := l.locks[name]
	if tl == nil {
		tl = new(tableLocks)
		l.locks[name] = tl
	}
	return tl
}

// SyncToDisk is the persist barrier: for every table it waits out a persist
// in flight, then persists what is left. It returns the number of images
// this call wrote, 0 when the persister had written them all. It does not
// wait for promotion.
func (l *Leaf) SyncToDisk() (int, error) {
	total := 0
	for _, tbl := range l.tablesSorted() {
		n, err := l.persistTable(tbl)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// SnapshotPass is SyncToDisk under the name it had when images and the disk
// backup were two stores; the frozen benchmark still calls it.
func (l *Leaf) SnapshotPass() (int, error) { return l.SyncToDisk() }

// persistBehind hands tbl to the persister once one of its blocks has
// sealed: §4.1's write-behind, with the seal as the synchronization point
// (a sealed block never changes). The persist runs on a goroutine of its
// own, off the ack path and outside the table and ingest locks. A failure is
// a flight-recorder event: the log still covers the rows, and the next seal
// or SyncToDisk writes them. A table still recovering is left to Start's
// hand-off at ALIVE, one shutting down to its own persist.
func (l *Leaf) persistBehind(tbl *table.Table) {
	if tbl.State() != table.StateAlive {
		return
	}
	go func() {
		if _, err := l.persistTable(tbl); err != nil {
			l.cfg.Obs.Event(obs.EventFail, obs.PhaseTablePersist+":"+tbl.Name(), err.Error())
		}
	}()
}

// persistTable writes the images of the blocks tbl sealed since its last
// persist, saves the store's watermark W past them and truncates the log
// behind W, under the table's persist lock. A failure marks nothing: the
// next persist rewrites the same files.
func (l *Leaf) persistTable(tbl *table.Table) (int, error) {
	locks := l.locksFor(tbl.Name())
	locks.persist.Lock()
	defer locks.persist.Unlock()
	return l.persistLocked(tbl)
}

func (l *Leaf) persistLocked(tbl *table.Table) (int, error) {
	blocks, starts := tbl.UnpersistedBlocks()
	for _, rb := range blocks {
		if src := rb.Source(); src != nil {
			// The block's mapping — the table's shm view, or a store image
			// that replaced a damaged block of it — pinned while its image is
			// written. One already gone holds no block of the table any more.
			if !src.Retain() {
				return l.persistLocked(tbl)
			}
			defer src.Release()
		}
	}
	n, err := l.store.Persist(tbl.Name(), blocks, starts)
	if err != nil || n == 0 {
		return n, err
	}
	w := starts[n-1] + int64(blocks[n-1].Rows())
	tbl.MarkPersistedThrough(w)
	if l.wal != nil {
		_, err = l.wal.Truncate(tbl.Name(), w)
	}
	return n, err
}

// WAL returns the leaf's write-ahead log (nil when disabled); tests and the
// bench harness reach through for assertions.
func (l *Leaf) WAL() *wal.Log { return l.wal }

// ExpireAll applies retention to every table and then to the store: images
// wholly below a table's first retained row go, whether age or size dropped
// the blocks, so a crash never resurrects what retention dropped. Deletes
// killed by a concurrent shutdown are not errors (§ Figure 5c).
func (l *Leaf) ExpireAll(now int64) (int, error) {
	dropped := 0
	for _, tbl := range l.tablesSorted() {
		n, err := tbl.Expire(now)
		dropped += n
		if err != nil {
			if errors.Is(err, table.ErrDeletesKilled) || errors.Is(err, table.ErrNotAccepting) {
				return dropped, nil
			}
			return dropped, err
		}
		// Under the persist lock: a persist that listed a block expiry
		// dropped writes its image first, and this deletes it.
		locks := l.locksFor(tbl.Name())
		locks.persist.Lock()
		_, err = l.store.DropBelow(tbl.Name(), tbl.FirstRow())
		locks.persist.Unlock()
		if err != nil {
			return dropped, err
		}
	}
	return dropped, nil
}

// Stats summarizes the leaf for tailers (placement) and dashboards.
type Stats struct {
	ID         int
	State      State
	Tables     int
	Blocks     int
	Rows       int64
	Bytes      int64
	FreeMemory int64
}

// Stats returns a snapshot. FreeMemory is the placement signal tailers ask
// two random leaves for (§2).
func (l *Leaf) Stats() Stats {
	tbls := l.tablesSorted()
	st := Stats{ID: l.cfg.ID, State: l.State(), Tables: len(tbls)}
	for _, t := range tbls {
		ts := t.Stats()
		st.Blocks += ts.NumBlocks
		st.Rows += ts.Rows + int64(ts.Unsealed)
		// Unsealed rows count at their raw size: they occupy heap now and
		// will shrink when the block seals and compresses.
		st.Bytes += ts.Bytes + ts.UnsealedBytes
	}
	if l.cfg.MemoryBudget > 0 {
		st.FreeMemory = l.cfg.MemoryBudget - st.Bytes
		if st.FreeMemory < 0 {
			st.FreeMemory = 0
		}
	}
	return st
}

// Tables lists table names currently held by the leaf.
func (l *Leaf) Tables() []string {
	tbls := l.tablesSorted()
	names := make([]string, len(tbls))
	for i, t := range tbls {
		names[i] = t.Name()
	}
	return names
}

// Table returns a table by name (nil when absent); the cluster and tests
// reach through for assertions.
func (l *Leaf) Table(name string) *table.Table {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tables[name]
}
