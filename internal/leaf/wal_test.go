package leaf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"scuba/internal/disk"
	"scuba/internal/fault"
	"scuba/internal/metrics"
	"scuba/internal/obs"
	"scuba/internal/query"
	"scuba/internal/rowblock"
	"scuba/internal/shm"
)

// walEnv extends env with the WAL directory that survives crashes.
type walEnv struct {
	env
	walDir string
}

func newWALEnv(t *testing.T) walEnv {
	t.Helper()
	return walEnv{env: newEnv(t), walDir: t.TempDir()}
}

func (e walEnv) config(id int) Config {
	cfg := e.env.config(id)
	cfg.WALDir = e.walDir
	return cfg
}

// groupedResult runs a grouped aggregation and returns its rendered rows —
// the byte-identical-results oracle for crash drills.
func groupedResult(t *testing.T, l *Leaf, tableName string) []query.Row {
	t.Helper()
	q := &query.Query{Table: tableName, From: 0, To: 1 << 40,
		GroupBy: []string{"service"},
		Aggregations: []query.Aggregation{
			{Op: query.AggCount},
			{Op: query.AggSum, Column: "latency"},
			{Op: query.AggMax, Column: "latency"},
		}}
	res, err := l.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows(q)
}

// TestWALCrashRecovery is the tentpole's keystone: snapshot images + WAL
// tail replay bring back every acked row — sealed, snapshotted, and the
// unsealed tail alike — with query results identical to pre-crash.
func TestWALCrashRecovery(t *testing.T) {
	e := newWALEnv(t)
	old := startLeaf(t, e.config(0))
	ingest(t, old, "events", 3000, 1000)
	ingest(t, old, "errors", 500, 2000)
	// Seal and snapshot the first wave, truncating the WAL behind it.
	if err := old.SealAll(); err != nil {
		t.Fatal(err)
	}
	if n, err := old.SnapshotPass(); err != nil || n != 2 {
		t.Fatalf("SnapshotPass = %d, %v", n, err)
	}
	// Second wave stays in the WAL tail (and partly in unsealed builders).
	ingest(t, old, "events", 700, 5000)
	wantEvents := groupedResult(t, old, "events")
	wantErrors := groupedResult(t, old, "errors")

	// Crash: no shutdown, no valid bit. The new process recovers from the
	// WAL, not the disk translate.
	l := startLeaf(t, e.config(0))
	info := l.Recovery()
	if info.Path != RecoveryWAL {
		t.Fatalf("recovery path = %v, want wal (%+v)", info.Path, info)
	}
	if info.SnapshotBlocks != 2 {
		t.Errorf("SnapshotBlocks = %d, want 2", info.SnapshotBlocks)
	}
	if info.WALRowsReplayed != 700 {
		t.Errorf("WALRowsReplayed = %d, want 700", info.WALRowsReplayed)
	}
	if got := countRows(t, l, "events"); got != 3700 {
		t.Fatalf("events count = %v, want 3700", got)
	}
	if got := groupedResult(t, l, "events"); !reflect.DeepEqual(got, wantEvents) {
		t.Errorf("events results differ after crash recovery:\n got %+v\nwant %+v", got, wantEvents)
	}
	if got := groupedResult(t, l, "errors"); !reflect.DeepEqual(got, wantErrors) {
		t.Errorf("errors results differ after crash recovery:\n got %+v\nwant %+v", got, wantErrors)
	}
	if src := l.tableRecoverySource("events"); src != "wal" {
		t.Errorf("recovery source = %q, want wal", src)
	}

	// The recovered leaf keeps ingesting and survives a second crash: the
	// reconciled cursor and rewritten disk backup must both line up.
	ingest(t, l, "events", 300, 9000)
	want2 := groupedResult(t, l, "events")
	l2 := startLeaf(t, e.config(0))
	if p := l2.Recovery().Path; p != RecoveryWAL {
		t.Fatalf("second crash recovery path = %v, want wal", p)
	}
	if got := countRows(t, l2, "events"); got != 4000 {
		t.Fatalf("events count after second crash = %v, want 4000", got)
	}
	if got := groupedResult(t, l2, "events"); !reflect.DeepEqual(got, want2) {
		t.Errorf("results differ after second crash recovery")
	}
}

// TestWALCorruptionFallsBackToDisk: mid-log corruption degrades that table
// to its store images instead of failing the leaf. A log segment of the
// retired WAL1 format (the wal package's fixture, which no supported release
// writes) is corruption like any other.
func TestWALCorruptionFallsBackToDisk(t *testing.T) {
	wal1, err := os.ReadFile(filepath.Join("..", "wal", "testdata", "wal1-segment.log"))
	if err != nil {
		t.Fatal(err)
	}
	for name, corrupt := range map[string]func([]byte) []byte{
		"flipped byte": func(data []byte) []byte { data[30] ^= 0xff; return data },
		"WAL1 segment": func([]byte) []byte { return wal1 },
	} {
		t.Run(name, func(t *testing.T) {
			e := newWALEnv(t)
			old := startLeaf(t, e.config(0))
			ingest(t, old, "events", 2000, 1000)
			if err := old.SealAll(); err != nil {
				t.Fatal(err)
			}
			if _, err := old.SyncToDisk(); err != nil {
				t.Fatal(err)
			}
			ingest(t, old, "events", 500, 5000)

			segs, err := filepath.Glob(filepath.Join(e.walDir, "leaf0", "events", "wal-*.log"))
			if err != nil || len(segs) == 0 {
				t.Fatalf("no WAL segment to corrupt (%v)", err)
			}
			data, err := os.ReadFile(segs[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(segs[0], corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}

			l := startLeaf(t, e.config(0))
			info := l.Recovery()
			if info.Path != RecoveryDisk {
				t.Fatalf("recovery path = %v, want disk (%+v)", info.Path, info)
			}
			var tr *TableRecovery
			for i := range info.PerTablePath {
				if info.PerTablePath[i].Table == "events" {
					tr = &info.PerTablePath[i]
				}
			}
			if tr == nil || !strings.Contains(tr.Reason, "corrupt record") {
				t.Fatalf("per-table path missing the fallback reason: %+v", info.PerTablePath)
			}
			// The synced rows survive; the WAL tail behind the corruption is
			// lost (pre-WAL durability for this one table).
			if got := countRows(t, l, "events"); got != 2000 {
				t.Fatalf("events count = %v, want 2000 synced rows", got)
			}
		})
	}
}

// TestWALReplayRowsCountedPastCorruption: rows replayed before mid-log
// corruption stay in the table, so wal.replay_rows counts them exactly as
// RecoveryInfo.WALRowsReplayed does.
func TestWALReplayRowsCountedPastCorruption(t *testing.T) {
	e := newWALEnv(t)
	old := startLeaf(t, e.config(0))
	for i := 0; i < 3; i++ {
		ingest(t, old, "events", 10, int64(1000+10*i)) // one record each
	}
	segs, err := filepath.Glob(filepath.Join(e.walDir, "leaf0", "events", "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v (%v), want one", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// A record is a 24-byte header, the payload (its length at offset 16) and
	// a 4-byte CRC: flip a payload byte of the second one.
	second := 24 + int(binary.LittleEndian.Uint32(data[16:])) + 4
	data[second+24+3] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := e.config(0)
	cfg.Metrics = metrics.NewRegistry()
	l := startLeaf(t, cfg)
	rec := l.Recovery()
	if rec.WALRowsReplayed != 10 {
		t.Fatalf("WALRowsReplayed = %d, want the 10 rows before the damage (%+v)", rec.WALRowsReplayed, rec)
	}
	if got := cfg.Metrics.Counter("wal.replay_rows").Value(); got != rec.WALRowsReplayed {
		t.Fatalf("wal.replay_rows = %d, WALRowsReplayed = %d", got, rec.WALRowsReplayed)
	}
}

// TestWALResetAfterCleanRestart: a clean shm restart resets the old log
// (it no longer mirrors memory); after the next snapshot pass, crash
// recovery is WAL-backed again with nothing lost.
func TestWALResetAfterCleanRestart(t *testing.T) {
	e := newWALEnv(t)
	first := startLeaf(t, e.config(0))
	ingest(t, first, "events", 1200, 1000)
	if _, err := first.Shutdown(); err != nil {
		t.Fatal(err)
	}

	second := startLeaf(t, e.config(0))
	if p := second.Recovery().Path; p != RecoveryMemory {
		t.Fatalf("clean restart path = %v, want memory", p)
	}
	ingest(t, second, "events", 300, 5000)
	if err := second.SealAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := second.SnapshotPass(); err != nil {
		t.Fatal(err)
	}
	ingest(t, second, "events", 50, 9000)
	want := groupedResult(t, second, "events")

	third := startLeaf(t, e.config(0))
	if p := third.Recovery().Path; p != RecoveryWAL {
		t.Fatalf("crash-after-clean-restart path = %v, want wal", p)
	}
	if got := countRows(t, third, "events"); got != 1550 {
		t.Fatalf("events count = %v, want 1550", got)
	}
	if got := groupedResult(t, third, "events"); !reflect.DeepEqual(got, want) {
		t.Errorf("results differ after crash recovery")
	}
}

// TestCleanShutdownLeavesNoLog: a shutdown that returns nil has emptied
// every table's log behind its persist — a quarantined one too — so the next
// start has no log to reset. A start that cannot take the shm backup then
// recovers every acked row from the store alone, through logs that cover
// their tables trivially.
func TestCleanShutdownLeavesNoLog(t *testing.T) {
	for _, toShm := range []bool{true, false} {
		t.Run(fmt.Sprintf("toShm=%v", toShm), func(t *testing.T) {
			e := newWALEnv(t)
			old := startLeaf(t, e.config(0))
			want := map[string]float64{"t0": 900, "t1": 300, "t2": 50}
			for name, n := range want {
				ingest(t, old, name, int(n)-20, 1000)
			}
			if err := old.SealAll(); err != nil {
				t.Fatal(err)
			}
			if err := old.WAL().Quarantine("t1"); err != nil {
				t.Fatal(err)
			}
			for name := range want {
				ingest(t, old, name, 20, 5000) // the tail each shutdown seals
			}
			dir := old.WAL().Dir()
			shutdown := old.ShutdownToDisk
			if toShm {
				shutdown = old.Shutdown
			}
			if _, err := shutdown(); err != nil {
				t.Fatal(err)
			}
			for name := range want {
				tableDir := filepath.Join(dir, disk.EncodeTableName(name))
				if entries, err := os.ReadDir(tableDir); err != nil || len(entries) != 0 {
					t.Errorf("%s's log after the shutdown: %v, %v; want an empty directory", name, entries, err)
				}
			}

			m := shm.NewManager(0, shm.Options{Dir: e.shmDir, Namespace: "test"})
			if err := m.Invalidate(); err != nil {
				t.Fatal(err)
			}
			nu := startLeaf(t, e.config(0))
			if rec := nu.Recovery(); rec.Path != RecoveryWAL || rec.WALRowsReplayed != 0 {
				t.Fatalf("recovery = %+v, want wal with nothing replayed", rec)
			}
			for name, n := range want {
				if got := countRows(t, nu, name); got != n {
					t.Errorf("%s rows = %v, want %v", name, got, n)
				}
			}
		})
	}
}

// TestFailedShutdownPersistKeepsTheLog: a shutdown whose persist fails, and
// whose failure path cannot write the images either, leaves the table's log
// whole, and the next start replays the tail no image holds.
func TestFailedShutdownPersistKeepsTheLog(t *testing.T) {
	e := newWALEnv(t)
	l := startLeaf(t, e.config(0))
	ingest(t, l, "events", 400, 1000)
	if err := l.SealAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.SyncToDisk(); err != nil {
		t.Fatal(err)
	}
	ingest(t, l, "events", 300, 2000) // the tail the shutdown seals
	t.Cleanup(fault.Reset)
	if err := fault.ArmSpec(fault.SiteSnapWrite + "=error"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Shutdown(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("shutdown = %v, want the persist's %v", err, fault.ErrInjected)
	}
	fault.Reset()
	nu := startLeaf(t, e.config(0))
	if rec := nu.Recovery(); rec.Path != RecoveryWAL || rec.WALRowsReplayed != 300 {
		t.Fatalf("recovery = %+v, want wal replaying the 300-row tail", rec)
	}
	if got := countRows(t, nu, "events"); got != 700 {
		t.Fatalf("rows = %v, want 700", got)
	}
}

// TestWALQuarantineOnRejectedBatch: a batch the table rejects mid-apply
// (type conflict) quarantines the table's log; crash recovery takes the
// disk path for it instead of trusting drifted row indexes.
func TestWALQuarantineOnRejectedBatch(t *testing.T) {
	e := newWALEnv(t)
	old := startLeaf(t, e.config(0))
	ingest(t, old, "events", 1000, 1000)
	if err := old.SealAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := old.SyncToDisk(); err != nil {
		t.Fatal(err)
	}
	// Seed the active builder so "latency" is registered as int64 there; a
	// string value then conflicts and the batch dies mid-apply, after its
	// WAL record was already written.
	ingest(t, old, "events", 10, 4000)
	bad := []rowblock.Row{{Time: 5000, Cols: map[string]rowblock.Value{
		"latency": rowblock.StringValue("oops"),
	}}}
	if err := old.AddRows("events", bad); err == nil {
		t.Fatal("conflicting batch unexpectedly accepted")
	}
	if !old.WAL().Quarantined("events") {
		t.Fatal("rejected batch did not quarantine the table's log")
	}

	l := startLeaf(t, e.config(0))
	info := l.Recovery()
	if info.Path != RecoveryDisk {
		t.Fatalf("recovery path = %v, want disk (%+v)", info.Path, info)
	}
	if got := countRows(t, l, "events"); got != 1000 {
		t.Fatalf("events count = %v, want 1000", got)
	}
	// The reset cleared the quarantine: the WAL is trustworthy again.
	if l.WAL().Quarantined("events") {
		t.Fatal("quarantine survived recovery reset")
	}
	ingest(t, l, "events", 40, 9000)
	if err := l.SealAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.SnapshotPass(); err != nil {
		t.Fatal(err)
	}
	l3 := startLeaf(t, e.config(0))
	if p := l3.Recovery().Path; p != RecoveryWAL {
		t.Fatalf("post-reset crash recovery path = %v, want wal", p)
	}
	if got := countRows(t, l3, "events"); got != 1040 {
		t.Fatalf("events count = %v, want 1040", got)
	}
}

// TestWALConcurrentIngestCrashRecovery hammers one table from many
// goroutines under group commit, with snapshot passes racing the ingest —
// the production shape the wire server produces (one goroutine per
// connection). The per-table ingest lock must keep WAL record order equal
// to table apply order, or a snapshot watermark falling between two
// reordered batches makes replay duplicate one and drop the other.
func TestWALConcurrentIngestCrashRecovery(t *testing.T) {
	e := newWALEnv(t)
	old := startLeaf(t, e.config(0))

	const (
		writers   = 16
		batches   = 150
		batchRows = 4
	)
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				rows := make([]rowblock.Row, batchRows)
				for i := range rows {
					// Globally unique latency values: any duplicated or lost
					// batch shifts the sum, not just the count.
					rows[i] = rowblock.Row{
						Time: int64(1000 + g),
						Cols: map[string]rowblock.Value{
							"service": rowblock.StringValue(fmt.Sprintf("svc-%d", g%4)),
							"latency": rowblock.Int64Value(int64(g*1000000 + b*1000 + i)),
						},
					}
				}
				if err := old.AddRows("events", rows); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	// Snapshot passes race the ingest, moving the watermark through the
	// middle of the concurrent batches. Every other pass finds an unsealed
	// tail the writers are appending to, and checkpoints it.
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for i := 0; ; i++ {
			select {
			case <-snapDone:
				return
			default:
			}
			if i%2 == 0 {
				old.SealAll() //nolint:errcheck
			}
			old.SnapshotPass() //nolint:errcheck
		}
	}()
	wg.Wait()
	snapDone <- struct{}{}
	<-snapDone
	for g, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", g, err)
		}
	}
	want := groupedResult(t, old, "events")
	// Close the abandoned leaf's log; its WAL files stay for the crash.
	if err := old.WAL().Close(); err != nil {
		t.Fatal(err)
	}

	l := startLeaf(t, e.config(0))
	if p := l.Recovery().Path; p != RecoveryWAL {
		t.Fatalf("recovery path = %v, want wal (%+v)", p, l.Recovery())
	}
	if got := countRows(t, l, "events"); got != writers*batches*batchRows {
		t.Fatalf("row count = %v, want %d", got, writers*batches*batchRows)
	}
	if got := groupedResult(t, l, "events"); !reflect.DeepEqual(got, want) {
		t.Errorf("results differ after concurrent-ingest crash recovery:\n got %+v\nwant %+v", got, want)
	}
}

// TestWALSyncFailureQuarantines: an fsync failure leaves the un-synced
// record bytes mid-segment, so the log can never be trusted again — the
// table must be durably quarantined (batch acked under the degraded
// pre-WAL model), not left with the cursor ahead of the applied rows.
func TestWALSyncFailureQuarantines(t *testing.T) {
	t.Cleanup(fault.Reset)
	e := newWALEnv(t)
	l := startLeaf(t, e.config(0))
	ingest(t, l, "events", 1000, 1000)
	if err := l.SealAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.SyncToDisk(); err != nil {
		t.Fatal(err)
	}
	if err := fault.ArmSpec("wal.sync=error;count=1"); err != nil {
		t.Fatal(err)
	}
	// The batch is still acked: WAL coverage is waived by the quarantine,
	// exactly like appends to an already-quarantined table.
	ingest(t, l, "events", 10, 5000)
	fault.Reset()
	if !l.WAL().Quarantined("events") {
		t.Fatal("fsync failure did not quarantine the table's log")
	}
	if _, err := os.Stat(filepath.Join(e.walDir, "leaf0", "events", "quarantined")); err != nil {
		t.Fatalf("quarantine marker not persisted: %v", err)
	}
	// Later batches keep flowing under the degraded model.
	ingest(t, l, "events", 10, 6000)

	// Crash: recovery must take the disk path — the WAL stopped mirroring
	// memory at the failed fsync.
	nu := startLeaf(t, e.config(0))
	if p := nu.Recovery().Path; p != RecoveryDisk {
		t.Fatalf("recovery path = %v, want disk (%+v)", p, nu.Recovery())
	}
	if got := countRows(t, nu, "events"); got != 1000 {
		t.Fatalf("row count = %v, want the 1000 synced rows", got)
	}
}

// TestWALRecoveryAfterSnapshotsExpire: when retention has expired every
// snapshot image below the watermark, replay must still seal rows at their
// true global indexes (the watermark carries the base), or the rebuilt
// log and watermark disagree with the table and the NEXT crash loses the
// fast path.
func TestWALRecoveryAfterSnapshotsExpire(t *testing.T) {
	e := newWALEnv(t)
	now := int64(2000)
	cfg := e.config(0)
	cfg.Table.MaxAgeSeconds = 1000
	cfg.Clock = func() int64 { return now }
	l := startLeaf(t, cfg)
	ingest(t, l, "events", 1000, 100) // times 100..1099
	if err := l.SealAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.SnapshotPass(); err != nil {
		t.Fatal(err)
	}
	// Age everything out: heap blocks and snapshot images both expire.
	now = 5000
	if _, err := l.ExpireAll(now); err != nil {
		t.Fatal(err)
	}
	ingest(t, l, "events", 300, 4990)

	l2cfg := e.config(0)
	l2cfg.Table.MaxAgeSeconds = 1000
	l2cfg.Clock = cfg.Clock
	l2 := startLeaf(t, l2cfg)
	if p := l2.Recovery().Path; p != RecoveryWAL {
		t.Fatalf("recovery path = %v, want wal (%+v)", p, l2.Recovery())
	}
	if got := countRows(t, l2, "events"); got != 300 {
		t.Fatalf("row count = %v, want 300", got)
	}
	// The replayed rows must have sealed at their true global indexes: a
	// snapshot pass and a second crash keep the WAL path (a misaligned base
	// would wedge the watermark above the images forever).
	if err := l2.SealAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := l2.SnapshotPass(); err != nil {
		t.Fatal(err)
	}
	l3 := startLeaf(t, l2cfg)
	if p := l3.Recovery().Path; p != RecoveryWAL {
		t.Fatalf("second crash recovery path = %v, want wal (%+v)", p, l3.Recovery())
	}
	if got := countRows(t, l3, "events"); got != 300 {
		t.Fatalf("row count after second crash = %v, want 300", got)
	}
}

// TestWALDisabledLeavesBehaviorUnchanged guards the default: no WALDir, no
// WAL state, crashes recover from disk exactly as before.
func TestWALDisabledLeavesBehaviorUnchanged(t *testing.T) {
	e := newEnv(t)
	old := startLeaf(t, e.config(0))
	ingest(t, old, "events", 800, 1000)
	if err := old.SealAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := old.SyncToDisk(); err != nil {
		t.Fatal(err)
	}
	l := startLeaf(t, e.config(0))
	if p := l.Recovery().Path; p != RecoveryDisk {
		t.Fatalf("recovery path = %v, want disk", p)
	}
	if l.WAL() != nil {
		t.Fatal("WAL open without WALDir")
	}
}

// TestObsOnlyLeafCountsTheWAL: a leaf's own metrics follow one rule — its
// Metrics registry, else its observer's — so a leaf given only an observer
// counts its WAL where it counts its queries.
func TestObsOnlyLeafCountsTheWAL(t *testing.T) {
	e := newWALEnv(t)
	cfg := e.config(0)
	reg := metrics.NewRegistry()
	cfg.Obs = obs.New(reg, nil)
	l := startLeaf(t, cfg)
	ingest(t, l, "events", 300, 1000)
	groupedResult(t, l, "events")
	snap := reg.Snapshot()
	if snap.Counters["wal.fsyncs"] < 1 || snap.Counters["wal.append_rows"] != 300 {
		t.Errorf("wal.fsyncs = %d, wal.append_rows = %d in the observer's registry, want >= 1 and 300",
			snap.Counters["wal.fsyncs"], snap.Counters["wal.append_rows"])
	}
	if got := snap.Timers["query.exec.latency"].Count; got != 1 {
		t.Errorf("query.exec.latency count = %d, want 1", got)
	}
}
