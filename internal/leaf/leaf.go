// Package leaf implements a Scuba leaf server (§2, §4). A leaf stores a
// fraction of most tables, ingests new rows, answers queries, expires old
// data, and — the contribution of the paper — restarts fast by staging its
// tables through shared memory across planned process restarts:
//
//   - Shutdown (Figure 6): copy every table from heap to shared memory one
//     row block column at a time, freeing heap as it goes, then set the
//     valid bit and exit.
//   - Restart (Figure 7): if the valid bit is set, clear it and copy the
//     data back to the heap, truncating and deleting segments as they
//     drain; otherwise recover from the disk backup.
//
// Crashes never recover from shared memory — the crash may have been caused
// by memory corruption — so the valid bit is only ever set by a completed
// clean shutdown and cleared the moment a restore begins.
package leaf

import (
	"errors"
	"fmt"
	"path/filepath"
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
	// DiskRoot is the backup directory root; empty disables disk backup
	// (useful in unit tests of the pure shm path).
	DiskRoot string
	// DiskFormat selects the backup encoding (row by default; columnar is
	// the §6 future-work variant).
	DiskFormat disk.Format
	// WALDir enables the per-table write-ahead log + incremental snapshot
	// store rooted there (a leaf<ID> subdirectory is created). Empty
	// disables the WAL: crashes pay the full disk translate, the pre-WAL
	// behavior.
	WALDir string
	// WALSyncInterval is the group-commit cadence: ingest batches block
	// until the next WAL fsync at most this far away. <=0 fsyncs on every
	// append (maximum durability, minimum throughput).
	WALSyncInterval time.Duration
	// Table sets default retention for new tables.
	Table table.Options
	// MemoryBudget is the nominal data capacity in bytes, reported to
	// tailers as free memory for placement decisions (§2).
	MemoryBudget int64
	// DisableMemoryRecovery forces disk recovery on start (Figure 5b's
	// "memory recovery disabled" edge).
	DisableMemoryRecovery bool
	// CopyWorkers bounds the worker pool that copies tables between heap
	// and shared memory on the restart path. The copy is pure memory
	// bandwidth (§4.2) and parallelizes across tables: 0 means
	// runtime.NumCPU(), 1 preserves the serial one-table-at-a-time
	// behavior.
	CopyWorkers int
	// ScanWorkers bounds the per-query worker pool that fans a table's
	// sealed blocks out during execution. 0 means runtime.GOMAXPROCS, 1
	// preserves the serial block-at-a-time scan.
	ScanWorkers int
	// InstantOn turns the shm restore from a barrier into serve-from-shm:
	// segments are mapped read-only, tables serve queries zero-copy from the
	// mappings the moment metadata + CRC validation pass, and blocks move
	// heap-side in the background in query-heat order. Off, the restore is
	// the paper's eager copy-in.
	InstantOn bool
	// PromoteWorkers bounds the background promotion pool that copies
	// shm-resident blocks heap-side after an instant-on restore. 0 resolves
	// like CopyWorkers (runtime.NumCPU()).
	PromoteWorkers int
	// DecodeCacheBytes budgets the per-table LRU of decoded columns that
	// lets repeated queries (dashboards) skip LZ4/dictionary decode. 0
	// disables the cache.
	DecodeCacheBytes int64
	// Metrics, when non-nil, receives per-worker copy gauges from Shutdown
	// and Start (leaf<ID>.shutdown.worker<k>.bytes / .busy_us and the
	// restore equivalents).
	Metrics *metrics.Registry
	// Obs, when non-nil, receives phase spans for the restart lifecycle
	// (restart.copy_out / .commit / .map / .copy_in / .disk_recovery timers
	// in its registry) and per-table begin/end/fail events in its flight
	// recorder. Point its registry at Metrics so /metrics shows both. A nil
	// Obs disables instrumentation at zero cost.
	Obs *obs.Observer
	// OnRestartPhase, when non-nil, observes each completed restart phase:
	// the recovery itself (phase "copy_in" for shm paths, "wal_replay" for
	// crash replay, "disk" for the backup translate) as Start returns, and
	// "promotion" when an instant-on promotion pool drains. The continuous
	// profiler hooks here to capture a tagged profile when a phase blows
	// its budget. Called from the restart path and the promoter's
	// completion goroutine — must not block.
	OnRestartPhase func(phase string, path RecoveryPath, d time.Duration)
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
	RecoveryDisk   RecoveryPath = "disk"   // restored from disk backup
	// RecoveryMixed means most tables restored from shared memory while the
	// ones whose segments failed validation were quarantined to the disk
	// path — only the damaged tables pay the translate cost.
	RecoveryMixed RecoveryPath = "mixed"
	// RecoveryWAL means the leaf came back from a crash via snapshot images
	// plus write-ahead-log replay — crash-path parity with the fast clean
	// restart, instead of the full disk translate.
	RecoveryWAL RecoveryPath = "wal"
	// RecoveryShmView means an instant-on restore: the leaf went ALIVE
	// serving queries zero-copy from mmap'd shm views after only metadata +
	// CRC validation, with the heap copy still running in the background.
	RecoveryShmView RecoveryPath = "shm-view"
)

// TableRecovery reports how one table came back during a mixed recovery.
type TableRecovery struct {
	Table string
	Path  RecoveryPath
	// Reason, for quarantined tables, says why the shm restore of this
	// table was rejected.
	Reason string `json:",omitempty"`
}

// RecoveryInfo reports what Start did, for dashboards and benchmarks.
type RecoveryInfo struct {
	Path          RecoveryPath
	Tables        int
	Blocks        int
	BytesRestored int64
	Duration      time.Duration
	// FellBack is set when memory recovery was attempted but an exception
	// sent the leaf to disk recovery (Figure 5b).
	FellBack bool
	// Workers is the copy pool size memory recovery ran with (0 when the
	// leaf recovered from disk or had nothing to restore).
	Workers int
	// PerTable breaks the restore down by table, sorted by table name.
	PerTable []TableCopyStat
	// PerTablePath says which path each table took (all "memory" on a clean
	// shm restore; a mix after quarantines), sorted by table name.
	PerTablePath []TableRecovery `json:",omitempty"`
	// Quarantined counts tables whose shm segments failed validation and
	// were re-read from disk instead.
	Quarantined int `json:",omitempty"`
	// WALRecords / WALRowsReplayed / SnapshotBlocks break a WAL recovery
	// down: how many log records and rows replayed, and how many columnar
	// snapshot images loaded ahead of the replay.
	WALRecords      int   `json:",omitempty"`
	WALRowsReplayed int64 `json:",omitempty"`
	SnapshotBlocks  int   `json:",omitempty"`
	// ServedFromShm counts blocks currently served zero-copy from mmap'd shm
	// views (instant-on); it drains toward zero as promotion moves blocks
	// heap-side. Recovery() reports the live value.
	ServedFromShm int64 `json:"served_from_shm"`
	// PromotedBlocks counts view blocks the background promoter has moved
	// heap-side since the last instant-on restore. Live value.
	PromotedBlocks int64 `json:"promoted_blocks"`
}

// ShutdownInfo reports what a clean shutdown did.
type ShutdownInfo struct {
	Tables      int
	Blocks      int
	BytesCopied int64
	Duration    time.Duration
	// ToShm is false when the leaf shut down without shared memory
	// (disk-only path).
	ToShm bool
	// Workers is the copy pool size the shutdown ran with (0 on the
	// disk-only path).
	Workers int
	// PerTable breaks the copy-out down by table, sorted by table name.
	PerTable []TableCopyStat
}

// ErrNotAlive is returned for requests while the leaf is restarting or has
// exited.
var ErrNotAlive = errors.New("leaf: not accepting requests in current state")

// Leaf is one leaf server.
type Leaf struct {
	cfg   Config
	shm   *shm.Manager
	store *disk.Store // nil when disk backup is disabled
	wal   *wal.Log    // nil when the WAL is disabled
	// walReady gates ingest-path WAL appends until Start has reconciled the
	// log cursors with whatever recovery restored; appends before that would
	// land at stale row indexes.
	walReady atomic.Bool

	mu     sync.Mutex
	state  State
	tables map[string]*table.Table
	// ingest holds one lock per table, spanning WAL record reservation and
	// the table apply in AddRows: WAL record order must equal table row
	// order or crash replay splices batches wrongly around the snapshot
	// watermark. The fsync wait happens outside the lock, so group commit
	// still batches concurrent appenders.
	ingest map[string]*sync.Mutex
	// caches holds each table's decoded-column cache (nil entries/absent
	// when Config.DecodeCacheBytes is 0). A table's cache is created when
	// the table is installed and its evict hook invalidates cache entries
	// as blocks expire or leave during shutdown copy-out.
	caches map[string]*query.DecodeCache

	recovery RecoveryInfo

	// promo is the background promotion pool after an instant-on restore
	// (nil otherwise); promoted counts blocks it has moved heap-side.
	promo    *promoter
	promoted atomic.Int64
	// restartBegin anchors the first-query availability-gap timer; the flag
	// arms it so exactly the first successful post-Start query observes it.
	restartBegin   time.Time
	firstQueryOpen atomic.Bool

	// copyBlockHook / restoreBlockHook are test-only fault-injection
	// points, called before each block copy with the table name and block
	// index; a non-nil return fails that worker's table mid-copy. Set them
	// before Shutdown/Start — workers read them without synchronization.
	copyBlockHook    func(table string, block int) error
	restoreBlockHook func(table string, block int) error
}

// New creates a leaf in INIT. Call Start to run recovery and go ALIVE.
func New(cfg Config) (*Leaf, error) {
	if cfg.Clock == nil {
		cfg.Clock = func() int64 { return time.Now().Unix() }
	}
	l := &Leaf{
		cfg:    cfg,
		shm:    shm.NewManager(cfg.ID, cfg.Shm),
		state:  StateInit,
		tables: make(map[string]*table.Table),
		ingest: make(map[string]*sync.Mutex),
		caches: make(map[string]*query.DecodeCache),
	}
	if cfg.DiskRoot != "" {
		store, err := disk.NewStore(cfg.DiskRoot, cfg.ID, cfg.DiskFormat)
		if err != nil {
			return nil, err
		}
		l.store = store
	}
	if cfg.WALDir != "" {
		w, err := wal.Open(filepath.Join(cfg.WALDir, fmt.Sprintf("leaf%d", cfg.ID)), wal.Options{
			SyncInterval: cfg.WALSyncInterval,
			Metrics:      cfg.Metrics,
		})
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
	tbls := make([]*table.Table, 0, len(l.tables))
	for _, t := range l.tables {
		tbls = append(tbls, t)
	}
	l.mu.Unlock()
	if info.Path == RecoveryShmView || info.ServedFromShm > 0 {
		var resident int64
		for _, t := range tbls {
			resident += int64(t.ForeignBlocks())
		}
		info.ServedFromShm = resident
		info.PromotedBlocks = l.promoted.Load()
	}
	return info
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

// restartPhaseName maps a recovery path to the restart phase it spent its
// time in, for the OnRestartPhase hook.
func restartPhaseName(p RecoveryPath) string {
	switch p {
	case RecoveryMemory, RecoveryMixed, RecoveryShmView:
		return "copy_in"
	case RecoveryWAL:
		return "wal_replay"
	case RecoveryDisk:
		return "disk"
	default:
		return "start"
	}
}

// ---- Restore path (Figure 7) ----

// Start runs recovery and brings the leaf ALIVE. It implements the restore
// state machine of Figure 5(b) and the pseudocode of Figure 7.
func (l *Leaf) Start() error {
	begin := time.Now()
	l.restartBegin = begin
	l.firstQueryOpen.Store(true)
	info := RecoveryInfo{Path: RecoveryNone}

	tryMemory := !l.cfg.DisableMemoryRecovery
	if tryMemory {
		if err := l.transition(StateMemoryRecovery); err != nil {
			return err
		}
		ok, err := l.restoreFromShm(&info)
		if err != nil {
			// Exception during memory recovery: fall back to disk
			// (Figure 5b). Anything half-restored is discarded.
			l.cfg.Obs.Event(obs.EventNote, "restart.disk_fallback",
				"memory recovery failed, falling back to disk: "+err.Error())
			l.dropAllTables()
			l.shm.RemoveAll() //nolint:errcheck // best effort cleanup
			info = RecoveryInfo{Path: RecoveryNone, FellBack: true}
			if terr := l.transition(StateDiskRecovery); terr != nil {
				return terr
			}
			sp := l.cfg.Obs.Start(obs.PhaseDiskRecovery)
			if derr := l.recoverCrash(&info); derr != nil {
				sp.End(derr)
				return fmt.Errorf("leaf: crash recovery after shm failure (%v): %w", err, derr)
			}
			sp.End(nil)
			if info.Path == RecoveryNone {
				info.Path = RecoveryDisk
			}
		} else if ok {
			// Path was set by restoreFromShm: memory on a clean restore,
			// mixed/disk when tables were quarantined.
		} else {
			// Valid bit unset — a crash, or a consumed backup. Free any
			// shared memory in use, then recover from the WAL (snapshot
			// images + log replay) when it has state, the disk backup
			// otherwise (Figure 7).
			l.shm.RemoveAll() //nolint:errcheck
			if terr := l.transition(StateDiskRecovery); terr != nil {
				return terr
			}
			sp := l.cfg.Obs.Start(obs.PhaseDiskRecovery)
			if derr := l.recoverCrash(&info); derr != nil {
				sp.End(derr)
				return derr
			}
			sp.End(nil)
		}
	} else {
		if err := l.transition(StateDiskRecovery); err != nil {
			return err
		}
		l.cfg.Obs.Event(obs.EventNote, "restart.disk_fallback", "memory recovery disabled by config")
		l.shm.RemoveAll() //nolint:errcheck
		sp := l.cfg.Obs.Start(obs.PhaseDiskRecovery)
		if err := l.recoverFromDisk(&info); err != nil {
			sp.End(err)
			return err
		}
		sp.End(nil)
		if info.Blocks > 0 {
			info.Path = RecoveryDisk
		}
	}

	if l.wal != nil {
		if err := l.reconcileWAL(&info); err != nil {
			return err
		}
	}
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
	err := l.transitionLocked(StateAlive)
	l.mu.Unlock()
	if err == nil && info.ServedFromShm > 0 {
		// Promotion starts only after the leaf is ALIVE: queries are already
		// being answered from the views, and the copy the paper blocked
		// availability on happens here, in the background.
		l.startPromoter()
	}
	return err
}

// restoreFromShm implements the happy path of Figure 7. It returns false
// when the valid bit is unset (caller reverts to disk recovery) and an error
// on metadata-level exceptions (caller falls back to full disk recovery).
// Per-table segment failures do NOT fail the restore: the damaged tables are
// quarantined to the disk path and info.Path reports mixed. On success it
// sets info.Path itself.
func (l *Leaf) restoreFromShm(info *RecoveryInfo) (bool, error) {
	ms := l.cfg.Obs.Start(obs.PhaseMap)
	md, err := l.shm.ReadMetadata()
	if errors.Is(err, shm.ErrNoMetadata) {
		ms.End(nil)
		l.cfg.Obs.Event(obs.EventNote, obs.PhaseMap, "no shm metadata: taking the disk path")
		return false, nil
	}
	if err != nil {
		ms.End(err)
		return false, err
	}
	if !md.Valid {
		ms.End(nil)
		l.cfg.Obs.Event(obs.EventNote, obs.PhaseMap,
			"valid bit unset (crash or consumed backup): taking the disk path")
		return false, nil
	}
	if md.Version != shm.LayoutVersion {
		// The shared memory layout changed between releases; the data is
		// unreadable by this binary. Disk recovery handles it (§4.2).
		ms.End(nil)
		l.cfg.Obs.Event(obs.EventNote, obs.PhaseMap,
			fmt.Sprintf("layout version skew (segment %d, binary %d): taking the disk path",
				md.Version, shm.LayoutVersion))
		return false, nil
	}
	// Set the valid bit to false first: if this code path is interrupted,
	// the next restart goes to disk recovery (Figure 7).
	md.Valid = false
	if err := l.shm.WriteMetadata(md); err != nil {
		ms.End(err)
		return false, err
	}
	ms.End(nil)
	if l.cfg.InstantOn {
		// Instant-on: map the segments read-only and serve zero-copy views
		// instead of blocking availability on the full copy-in; the copy
		// happens in the background after Start returns (startPromoter).
		if err := l.viewRestore(md, info); err != nil {
			return false, err
		}
		return true, nil
	}
	ci := l.cfg.Obs.Start(obs.PhaseCopyIn)
	restored, stats, errs, workers := l.copyInAll(md.Segments)
	info.Workers = workers
	ci.End(nil)
	// Install every table that restored cleanly; a corrupt or unreadable
	// segment quarantines only its own table to the disk path instead of
	// throwing away the whole shm restore.
	l.mu.Lock()
	for i, si := range md.Segments {
		if errs[i] == nil {
			l.tables[si.Table] = restored[i]
		}
	}
	l.mu.Unlock()
	for i, si := range md.Segments {
		if errs[i] == nil {
			l.attachCache(si.Table, restored[i])
		}
	}
	for i, st := range stats {
		if errs[i] != nil {
			continue
		}
		info.Tables++
		info.Blocks += st.Blocks
		info.BytesRestored += st.Bytes
		info.PerTable = append(info.PerTable, st)
		info.PerTablePath = append(info.PerTablePath, TableRecovery{Table: st.Table, Path: RecoveryMemory})
	}
	sort.Slice(info.PerTable, func(i, j int) bool { return info.PerTable[i].Table < info.PerTable[j].Table })
	for i, si := range md.Segments {
		if errs[i] == nil {
			continue
		}
		info.Quarantined++
		l.cfg.Obs.Event(obs.EventFail, "restart.quarantine",
			fmt.Sprintf("table %q quarantined to disk: %v", si.Table, errs[i]))
		tr := TableRecovery{Table: si.Table, Path: RecoveryDisk, Reason: errs[i].Error()}
		sp := l.cfg.Obs.Start(obs.PhaseDiskRecovery)
		derr := l.recoverTableFromDisk(si.Table, info)
		sp.End(derr)
		if derr != nil {
			// Best effort: the table is lost, but the leaf still serves
			// every other table (partial results, §1).
			tr.Path = RecoveryNone
			tr.Reason += "; disk reload failed: " + derr.Error()
			l.cfg.Obs.Event(obs.EventFail, "restart.quarantine",
				fmt.Sprintf("table %q lost: disk reload failed: %v", si.Table, derr))
		} else {
			info.Tables++
		}
		info.PerTablePath = append(info.PerTablePath, tr)
	}
	sort.Slice(info.PerTablePath, func(i, j int) bool { return info.PerTablePath[i].Table < info.PerTablePath[j].Table })
	switch {
	case info.Quarantined == 0:
		info.Path = RecoveryMemory
	case info.Quarantined < len(md.Segments):
		info.Path = RecoveryMixed
	default:
		info.Path = RecoveryDisk
	}
	// Figure 7: delete the metadata shared memory segment (and the segments
	// of quarantined tables along with it).
	if err := l.shm.RemoveAll(); err != nil {
		return false, err
	}
	return true, nil
}

// recoverTableFromDisk reloads a single quarantined table from the disk
// backup. Shutdown synced every sealed block before its shm copy began, so
// the backup is complete for any table that reached a finished segment.
func (l *Leaf) recoverTableFromDisk(name string, info *RecoveryInfo) error {
	if l.store == nil {
		return errors.New("leaf: no disk backup configured")
	}
	tbl := table.NewRecovering(name, l.cfg.Table)
	if err := tbl.Transition(table.StateDiskRecovery); err != nil {
		return err
	}
	l.mu.Lock()
	l.tables[name] = tbl
	l.mu.Unlock()
	l.attachCache(name, tbl)
	err := l.store.LoadTable(name, func(rb *rowblock.RowBlock) error {
		info.Blocks++
		info.BytesRestored += rb.Header().Size
		return tbl.RestoreBlock(rb)
	})
	if err != nil {
		// Drop the placeholder: an absent table answers queries with empty
		// partial results, the same as a leaf that never held it.
		l.mu.Lock()
		delete(l.tables, name)
		l.mu.Unlock()
		return err
	}
	return nil
}

// recoverFromDisk reads every table backup and translates it into memory.
func (l *Leaf) recoverFromDisk(info *RecoveryInfo) error {
	if l.store == nil {
		return nil
	}
	tables, err := l.store.Tables()
	if err != nil {
		return err
	}
	for _, name := range tables {
		tbl := table.NewRecovering(name, l.cfg.Table)
		if err := tbl.Transition(table.StateDiskRecovery); err != nil {
			return err
		}
		// Queries see the table (with gradually increasing partial
		// results) while it loads (§4.1).
		l.mu.Lock()
		l.tables[name] = tbl
		l.mu.Unlock()
		l.attachCache(name, tbl)
		err := l.store.LoadTable(name, func(rb *rowblock.RowBlock) error {
			info.Blocks++
			info.BytesRestored += rb.Header().Size
			return tbl.RestoreBlock(rb)
		})
		if err != nil {
			return fmt.Errorf("leaf: disk recovery of %q: %w", name, err)
		}
		info.Tables++
	}
	return nil
}

// attachCache creates (or reuses) the table's decoded-column cache and wires
// the table's evict hook to it, so blocks leaving the table (expiration,
// shutdown copy-out) drop their cached columns. No-op when the cache is
// disabled. Caller must not hold l.mu.
func (l *Leaf) attachCache(name string, tbl *table.Table) {
	if l.cfg.DecodeCacheBytes <= 0 {
		return
	}
	l.mu.Lock()
	c, ok := l.caches[name]
	if !ok {
		c = query.NewDecodeCache(l.cfg.DecodeCacheBytes, l.queryRegistry())
		l.caches[name] = c
	}
	l.mu.Unlock()
	tbl.SetEvictHook(c.InvalidateBlocks)
}

func (l *Leaf) dropAllTables() {
	l.mu.Lock()
	tables := l.tables
	l.tables = make(map[string]*table.Table)
	l.ingest = make(map[string]*sync.Mutex)
	l.caches = make(map[string]*query.DecodeCache)
	l.mu.Unlock()
	// Tables still holding shm-resident blocks (an instant-on restore that
	// failed partway, or a disk-bound shutdown before promotion drained)
	// release their residency references here so the mappings unmap once the
	// last in-flight scan finishes. The shm-backed Shutdown path drained all
	// blocks through DropBlocksForShutdown already, so this sees none.
	for _, t := range tables {
		rowblock.ReleaseSources(t.Blocks())
	}
}

// ---- Backup path (Figure 6) ----

// Shutdown performs a clean shutdown through shared memory, implementing
// Figure 6: flush to disk, copy every table to its segment (releasing heap
// as it goes) with a pool of Config.CopyWorkers workers, set the valid bit,
// and move the leaf to EXIT. After Shutdown returns the process can exec
// its replacement. On failure no shared memory survives — the next start
// recovers from disk.
func (l *Leaf) Shutdown() (ShutdownInfo, error) {
	begin := time.Now()
	info := ShutdownInfo{ToShm: true}
	// Stop background promotion before touching any table: a promotion
	// mid-copy must not race the copy-out's block drain.
	l.stopPromoter()
	if err := l.transition(StateCopyToShm); err != nil {
		return info, err
	}

	// Figure 6: create the leaf metadata with the valid bit false. It only
	// becomes true after every table is safely in shared memory.
	co := l.cfg.Obs.Start(obs.PhaseCopyOut)
	md := &shm.Metadata{Valid: false, Version: shm.LayoutVersion, Created: l.cfg.Clock()}
	if err := l.shm.WriteMetadata(md); err != nil {
		co.End(err)
		// The next start disk-recovers; make sure sealed-but-unsynced
		// blocks reach the backup and no stale shm survives.
		l.flushBestEffort(l.tablesSorted())
		l.shm.RemoveAll() //nolint:errcheck
		return info, err
	}

	stats, workers, err := l.copyOutAll(l.tablesSorted(), md)
	info.Workers = workers
	info.PerTable = stats
	for _, st := range stats {
		info.Tables++
		info.Blocks += st.Blocks
		info.BytesCopied += st.Bytes
	}
	if err != nil {
		co.End(err)
		return info, err
	}
	co.End(nil)

	// Figure 6: set valid bit to true — the commit point, written exactly
	// once, after every worker has finished.
	cm := l.cfg.Obs.Start(obs.PhaseCommit)
	md.Valid = true
	if err := l.shm.WriteMetadata(md); err != nil {
		cm.End(err)
		// The valid bit never landed, so the segments are unreachable by
		// the next start: free them and flush any disk stragglers (the
		// per-table copies already synced, so this is belt and braces).
		l.flushBestEffort(l.tablesSorted())
		l.shm.RemoveAll() //nolint:errcheck
		return info, err
	}
	cm.End(nil)
	l.dropAllTables()
	l.closeWAL()
	if err := l.transition(StateExit); err != nil {
		return info, err
	}
	info.Duration = time.Since(begin)
	return info, nil
}

// closeWAL flushes and closes the write-ahead log on the clean shutdown
// paths. The log files are intentionally left on disk: if the process
// crashes before (or during) the next restore, the WAL still covers
// everything the shm backup does.
func (l *Leaf) closeWAL() {
	if l.wal != nil {
		l.walReady.Store(false)
		l.wal.Close() //nolint:errcheck // shutdown teardown; appends already acked are synced
	}
}

// ShutdownToDisk performs a clean shutdown without shared memory: flush all
// tables to disk and exit. The next start recovers from disk. This is the
// pre-paper upgrade path and the baseline in every restart experiment.
func (l *Leaf) ShutdownToDisk() (ShutdownInfo, error) {
	begin := time.Now()
	info := ShutdownInfo{ToShm: false}
	l.stopPromoter()
	if err := l.transition(StateCopyToShm); err != nil {
		return info, err
	}
	for _, tbl := range l.tablesSorted() {
		if err := tbl.Prepare(); err != nil {
			return info, err
		}
		if l.store != nil {
			n, err := l.store.SyncTable(tbl)
			if err != nil {
				return info, err
			}
			info.Blocks += n
		}
		if err := tbl.Transition(table.StateCopyToShm); err != nil {
			return info, err
		}
		if err := tbl.Transition(table.StateDone); err != nil {
			return info, err
		}
		info.Tables++
	}
	// No shm data: make sure stale segments from older runs cannot be used.
	if err := l.shm.RemoveAll(); err != nil {
		return info, err
	}
	l.dropAllTables()
	l.closeWAL()
	if err := l.transition(StateExit); err != nil {
		return info, err
	}
	info.Duration = time.Since(begin)
	return info, nil
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
// sink, a not-yet-upgraded tailer's KindAddRows — by transposing them into a
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
		tbl = table.New(tableName, l.cfg.Table)
		l.tables[tableName] = tbl
	}
	useWAL := l.wal != nil && l.walReady.Load()
	var ing *sync.Mutex
	if useWAL {
		if ing = l.ingest[tableName]; ing == nil {
			ing = new(sync.Mutex)
			l.ingest[tableName] = ing
		}
	}
	l.mu.Unlock()
	if !ok {
		l.attachCache(tableName, tbl)
	}
	if !useWAL {
		return tbl.AddBatch(b, l.cfg.Clock())
	}
	if frame == nil {
		frame = b.AppendFrame(nil)
	}
	// Log before apply, under the table's ingest lock: the lock makes WAL
	// record order equal table apply order (concurrent batches to one table
	// otherwise interleave the two differently, and crash replay would
	// splice them wrongly around the snapshot watermark). The durability
	// wait happens after the lock drops, so concurrent appenders still
	// share group-commit fsyncs.
	ing.Lock()
	commit, err := l.wal.Begin(tableName, frame, b.Rows())
	if err != nil {
		ing.Unlock()
		return err
	}
	err = tbl.AddBatch(b, l.cfg.Clock())
	ing.Unlock()
	if err != nil {
		// The table rejected a batch the log already holds: the log's row
		// indexes no longer mirror the table. Quarantine it, degrading that
		// one table's crash recovery to the disk translate until the next
		// restart resets its log. If even the quarantine marker cannot be
		// persisted, the WAL keeps nacking the table — surface that too.
		if qerr := l.wal.Quarantine(tableName); qerr != nil {
			return errors.Join(err, qerr)
		}
		return err
	}
	if commit == nil {
		// Quarantined log: the batch is applied but not WAL-covered; acked
		// under the degraded pre-WAL durability model (disk write-behind).
		return nil
	}
	return commit.Wait()
}

// Query executes a query against this leaf's fraction of the table. A leaf
// without the table returns an empty (not error) result, matching partial
// result semantics.
func (l *Leaf) Query(q *query.Query) (*query.Result, error) {
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
	dc := l.caches[q.Table]
	l.mu.Unlock()
	if !ok {
		if err := q.Validate(); err != nil {
			return nil, err
		}
		l.observeFirstQuery()
		return query.NewResult(), nil
	}
	opts := query.ExecOptions{Workers: l.cfg.ScanWorkers, Cache: dc}
	res, err := query.ExecuteTableObservedOpts(tbl, q, l.queryRegistry(), opts)
	if err == nil {
		l.observeFirstQuery()
	}
	return res, err
}

// observeFirstQuery records restart.first_query_gap exactly once per Start:
// the time from the restart's first instruction to the first successfully
// answered query. This is the availability gap the paper's restarts pay in
// full copy-in time and the instant-on path collapses to the view-open cost.
func (l *Leaf) observeFirstQuery() {
	if !l.firstQueryOpen.CompareAndSwap(true, false) {
		return
	}
	gap := time.Since(l.restartBegin)
	if reg := l.queryRegistry(); reg != nil {
		reg.Timer(obs.TimerFirstQueryGap).Observe(gap)
	}
	l.cfg.Obs.Event(obs.EventNote, obs.TimerFirstQueryGap, gap.String())
}

// RecoveryQuarantined is the recovery source QueryTraced reports for a
// table whose shm segment failed validation and was re-read from disk.
const RecoveryQuarantined = "quarantined"

// QueryTraced executes a query and additionally builds the structured
// execution report (per-phase timings, work accounting, recovery source)
// that the wire protocol ships back for the trace's leaf span. The span ID
// in tc is echoed so the aggregator can slot the report into its trace.
func (l *Leaf) QueryTraced(q *query.Query, tc obs.TraceContext) (*query.Result, *obs.ExecStats, error) {
	start := time.Now()
	res, err := l.Query(q)
	if err != nil {
		return nil, nil, err
	}
	stats := &obs.ExecStats{
		SpanID:        tc.SpanID,
		Table:         q.Table,
		Recovery:      l.tableRecoverySource(q.Table),
		LatencyNanos:  time.Since(start).Nanoseconds(),
		DecodeNanos:   res.Phases.DecodeNanos,
		PruneNanos:    res.Phases.PruneNanos,
		ScanNanos:     res.Phases.ScanNanos,
		MergeNanos:    res.Phases.MergeNanos,
		RowsScanned:   res.RowsScanned,
		BlocksScanned: res.BlocksScanned,
		BlocksPruned:  res.BlocksPruned,
		BlocksSkipped: res.BlocksSkipped,
		CacheHits:     res.CacheHits,
		CacheMisses:   res.CacheMisses,
	}
	return res, stats, nil
}

// tableRecoverySource reports where a table's data came from on the last
// Start: the per-table path when a mixed recovery recorded one (with
// quarantined tables called out), else the leaf-wide path.
func (l *Leaf) tableRecoverySource(tableName string) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, tr := range l.recovery.PerTablePath {
		if tr.Table != tableName {
			continue
		}
		if tr.Reason != "" {
			return RecoveryQuarantined
		}
		return string(tr.Path)
	}
	return string(l.recovery.Path)
}

// queryRegistry picks the registry query latencies land in: Config.Metrics
// when set, else the observer's (nil disables query metrics).
func (l *Leaf) queryRegistry() *metrics.Registry {
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

// SyncToDisk writes unsynced blocks of all tables to the disk backup
// (asynchronous write-behind during normal operation, §4.1).
func (l *Leaf) SyncToDisk() (int, error) {
	if l.store == nil {
		return 0, nil
	}
	total := 0
	for _, tbl := range l.tablesSorted() {
		n, err := l.store.SyncTable(tbl)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// ExpireAll applies retention to every table and the disk backup. Deletes
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
		if l.store != nil && l.cfg.Table.MaxAgeSeconds > 0 {
			if _, err := l.store.ExpireTable(tbl.Name(), now-l.cfg.Table.MaxAgeSeconds); err != nil {
				return dropped, err
			}
		}
		if l.wal != nil && l.cfg.Table.MaxAgeSeconds > 0 {
			if _, err := l.wal.ExpireSnapshots(tbl.Name(), now-l.cfg.Table.MaxAgeSeconds); err != nil {
				return dropped, err
			}
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
	l.mu.Lock()
	state := l.state
	tbls := make([]*table.Table, 0, len(l.tables))
	for _, t := range l.tables {
		tbls = append(tbls, t)
	}
	l.mu.Unlock()
	st := Stats{ID: l.cfg.ID, State: state, Tables: len(tbls)}
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
	l.mu.Lock()
	defer l.mu.Unlock()
	names := make([]string, 0, len(l.tables))
	for name := range l.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Table returns a table by name (nil when absent); the cluster and tests
// reach through for assertions.
func (l *Leaf) Table(name string) *table.Table {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tables[name]
}
