package leaf

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"scuba/internal/fault"
	"scuba/internal/query"
	"scuba/internal/rowblock"
	"scuba/internal/shm"
	"scuba/internal/table"
)

// env bundles the shared directories that survive "process" restarts.
type env struct {
	shmDir  string
	diskDir string
}

func newEnv(t *testing.T) env {
	t.Helper()
	return env{shmDir: t.TempDir(), diskDir: t.TempDir()}
}

func (e env) config(id int) Config {
	return Config{
		ID:           id,
		Shm:          shm.Options{Dir: e.shmDir, Namespace: "test"},
		DiskRoot:     e.diskDir,
		MemoryBudget: 1 << 30,
	}
}

// setProcs gives the rest of the test n cores: every pool on the restart and
// query paths is sized by GOMAXPROCS. No test in the tree is t.Parallel.
func setProcs(t testing.TB, n int) {
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func startLeaf(t *testing.T, cfg Config) *Leaf {
	t.Helper()
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Start(); err != nil {
		t.Fatal(err)
	}
	// A persist behind a seal may outlive the test: the SyncToDisk barrier
	// waits it out before the TempDir cleanups, registered earlier, run.
	t.Cleanup(func() { l.SyncToDisk() }) //nolint:errcheck
	return l
}

func ingest(t *testing.T, l *Leaf, tableName string, n int, start int64) {
	t.Helper()
	rows := make([]rowblock.Row, n)
	for i := range rows {
		rows[i] = rowblock.Row{
			Time: start + int64(i),
			Cols: map[string]rowblock.Value{
				"service": rowblock.StringValue(fmt.Sprintf("svc-%d", i%4)),
				"latency": rowblock.Int64Value(int64(i % 100)),
			},
		}
	}
	if err := l.AddRows(tableName, rows); err != nil {
		t.Fatal(err)
	}
}

func countRows(t *testing.T, l *Leaf, tableName string) float64 {
	t.Helper()
	q := &query.Query{Table: tableName, From: 0, To: 1 << 40,
		Aggregations: []query.Aggregation{{Op: query.AggCount}}}
	res, err := l.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows(q)
	if len(rows) == 0 {
		return 0
	}
	return rows[0].Values[0]
}

func TestFreshStart(t *testing.T) {
	e := newEnv(t)
	l := startLeaf(t, e.config(0))
	if l.State() != StateAlive {
		t.Fatalf("state = %v", l.State())
	}
	if l.Recovery().Path != RecoveryNone {
		t.Errorf("recovery = %+v", l.Recovery())
	}
	ingest(t, l, "events", 100, 1000)
	if got := countRows(t, l, "events"); got != 100 {
		t.Errorf("count = %v", got)
	}
}

func TestShmRestartCycle(t *testing.T) {
	e := newEnv(t)
	old := startLeaf(t, e.config(0))
	ingest(t, old, "events", 1000, 1000)
	ingest(t, old, "errors", 500, 2000)

	info, err := old.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if old.State() != StateExit {
		t.Errorf("state = %v", old.State())
	}
	if info.Tables != 2 || !info.ToShm {
		t.Errorf("shutdown info = %+v", info)
	}
	if info.BytesCopied == 0 {
		t.Error("no bytes copied")
	}

	// "New process": fresh leaf over the same directories.
	nu := startLeaf(t, e.config(0))
	rec := nu.Recovery()
	if rec.Path != RecoveryMemory {
		t.Fatalf("recovery path = %v (%+v)", rec.Path, rec)
	}
	if rec.Tables != 2 {
		t.Errorf("recovered %d tables", rec.Tables)
	}
	if got := countRows(t, nu, "events"); got != 1000 {
		t.Errorf("events count = %v", got)
	}
	if got := countRows(t, nu, "errors"); got != 500 {
		t.Errorf("errors count = %v", got)
	}
	// Segments and metadata are gone (Figure 7 deletes them).
	m := shm.NewManager(0, shm.Options{Dir: e.shmDir, Namespace: "test"})
	if _, err := m.ReadMetadata(); !errors.Is(err, shm.ErrNoMetadata) {
		t.Errorf("metadata still present: %v", err)
	}
}

func TestShmRestartPreservesQueryResults(t *testing.T) {
	e := newEnv(t)
	old := startLeaf(t, e.config(0))
	ingest(t, old, "events", 2000, 1000)

	q := &query.Query{Table: "events", From: 0, To: 1 << 40,
		Aggregations: []query.Aggregation{{Op: query.AggCount}, {Op: query.AggSum, Column: "latency"}},
		GroupBy:      []string{"service"}}
	before, err := old.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := before.Rows(q)

	if _, err := old.Shutdown(); err != nil {
		t.Fatal(err)
	}
	nu := startLeaf(t, e.config(0))
	after, err := nu.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	gotRows := after.Rows(q)
	if len(gotRows) != len(wantRows) {
		t.Fatalf("groups: %d vs %d", len(gotRows), len(wantRows))
	}
	for i := range wantRows {
		if strings.Join(gotRows[i].Key, ",") != strings.Join(wantRows[i].Key, ",") {
			t.Errorf("row %d key mismatch", i)
		}
		for j := range wantRows[i].Values {
			if gotRows[i].Values[j] != wantRows[i].Values[j] {
				t.Errorf("row %d value %d: %v vs %v", i, j, gotRows[i].Values[j], wantRows[i].Values[j])
			}
		}
	}
}

func TestCrashRecoversFromDisk(t *testing.T) {
	e := newEnv(t)
	old := startLeaf(t, e.config(0))
	ingest(t, old, "events", 800, 1000)
	if err := old.SealAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := old.SyncToDisk(); err != nil {
		t.Fatal(err)
	}
	// Simulated crash: no shutdown, process vanishes. The valid bit was
	// never set, so the next start must use the disk backup.
	nu := startLeaf(t, e.config(0))
	rec := nu.Recovery()
	if rec.Path != RecoveryDisk {
		t.Fatalf("recovery path = %v", rec.Path)
	}
	if got := countRows(t, nu, "events"); got != 800 {
		t.Errorf("count = %v", got)
	}
}

func TestCrashLosesUnsyncedTail(t *testing.T) {
	// §4.1: losing a tiny amount of unsynced data on crash is acceptable.
	e := newEnv(t)
	old := startLeaf(t, e.config(0))
	ingest(t, old, "events", 500, 1000)
	if err := old.SealAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := old.SyncToDisk(); err != nil {
		t.Fatal(err)
	}
	ingest(t, old, "events", 50, 5000) // unsealed, unsynced tail

	nu := startLeaf(t, e.config(0))
	if got := countRows(t, nu, "events"); got != 500 {
		t.Errorf("count = %v, want 500 (tail lost)", got)
	}
}

func TestCleanShutdownLosesNothing(t *testing.T) {
	// Clean shutdown seals and flushes in-progress rows before copying.
	e := newEnv(t)
	old := startLeaf(t, e.config(0))
	ingest(t, old, "events", 123, 1000) // stays unsealed
	if _, err := old.Shutdown(); err != nil {
		t.Fatal(err)
	}
	nu := startLeaf(t, e.config(0))
	if got := countRows(t, nu, "events"); got != 123 {
		t.Errorf("count = %v", got)
	}
}

func TestMemoryRecoveryDisabled(t *testing.T) {
	e := newEnv(t)
	old := startLeaf(t, e.config(0))
	ingest(t, old, "events", 300, 1000)
	if _, err := old.Shutdown(); err != nil {
		t.Fatal(err)
	}
	cfg := e.config(0)
	cfg.DisableMemoryRecovery = true
	nu := startLeaf(t, cfg)
	rec := nu.Recovery()
	if rec.Path != RecoveryDisk {
		t.Fatalf("recovery path = %v", rec.Path)
	}
	if got := countRows(t, nu, "events"); got != 300 {
		t.Errorf("count = %v", got)
	}
	// Stale shm must have been freed.
	m := shm.NewManager(0, shm.Options{Dir: e.shmDir, Namespace: "test"})
	if _, err := m.ReadMetadata(); !errors.Is(err, shm.ErrNoMetadata) {
		t.Error("stale metadata not removed")
	}
}

// tableSegmentFile returns the one shm segment file a shutdown left for table
// (its name carries a generation suffix).
func tableSegmentFile(t *testing.T, e env, table string) string {
	t.Helper()
	segs, _ := filepath.Glob(filepath.Join(e.shmDir, "*-"+shm.SegmentNameForTable(table)+"*"))
	if len(segs) != 1 {
		t.Fatalf("segment files of %s: %v", table, segs)
	}
	return segs[0]
}

// TestCorruptSegmentFallsBackToDisk flips one byte of one table segment's
// block index after the shutdown finished it. Either way the open's index
// CRC must quarantine exactly that table to the store — the leaf metadata
// was fine, so there is no whole-restore fallback — and the other table
// still comes from shm. (A flip in a block's columns costs that block alone:
// TestDrainVerifiesBeforeInstall goes region by region.)
func TestCorruptSegmentFallsBackToDisk(t *testing.T) {
	for _, instantOn := range []bool{false, true} {
		t.Run(fmt.Sprintf("instant-on=%v", instantOn), func(t *testing.T) {
			e := newEnv(t)
			old := startLeaf(t, e.config(0))
			ingest(t, old, "events", 400, 1000)
			ingest(t, old, "errors", 300, 1000)
			if _, err := old.Shutdown(); err != nil {
				t.Fatal(err)
			}
			segFile := tableSegmentFile(t, e, "events")
			raw, err := os.ReadFile(segFile)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)-2] ^= 0xff // the last block's prefix CRC
			if err := os.WriteFile(segFile, raw, 0o644); err != nil {
				t.Fatal(err)
			}

			cfg := e.config(0)
			cfg.InstantOn = instantOn
			nu := startLeaf(t, cfg)
			defer nu.stopPromoter()
			rec := nu.Recovery()
			if rec.Path != RecoveryMixed || rec.Quarantined != 1 || rec.FellBack {
				t.Fatalf("recovery = %+v, want mixed with 1 quarantined table", rec)
			}
			fromShm := RecoveryMemory
			if instantOn {
				fromShm = RecoveryShmView
			}
			for _, tr := range rec.PerTablePath {
				switch {
				case tr.Table == "events" && (tr.Path != RecoveryDisk || !strings.Contains(tr.Reason, "checksum")):
					t.Errorf("damaged table: %+v, want disk for a checksum", tr)
				case tr.Table == "errors" && tr.Path != fromShm:
					t.Errorf("intact table: %+v, want %v", tr, fromShm)
				}
			}
			if got := countRows(t, nu, "events"); got != 400 {
				t.Errorf("events count = %v", got)
			}
			if got := countRows(t, nu, "errors"); got != 300 {
				t.Errorf("errors count = %v", got)
			}
		})
	}
}

// TestEagerDrainShrinksSegment is §4.4 at the leaf: an eager start clones a
// table's blocks newest first through the mapped view, and the segment file is
// strictly smaller each time the next clone begins and gone once the table is
// in.
func TestEagerDrainShrinksSegment(t *testing.T) {
	e := newEnv(t)
	old := startLeaf(t, e.config(0))
	for i := 0; i < 4; i++ {
		ingest(t, old, "events", 500, int64(1000+500*i))
		if err := old.SealAll(); err != nil {
			t.Fatal(err)
		}
	}
	want := queryFingerprint(t, old, "events")
	if _, err := old.Shutdown(); err != nil {
		t.Fatal(err)
	}
	segFile := tableSegmentFile(t, e, "events")
	nu, err := New(e.config(0))
	if err != nil {
		t.Fatal(err)
	}
	// Each clone waits at shm.copy_in while the segment is measured as that
	// clone finds it; Hits says when the next one has arrived.
	t.Cleanup(fault.Reset)
	fault.Arm(fault.Point{Site: fault.SiteShmCopyIn, Action: fault.ActDelay, Delay: 50 * time.Millisecond})
	started := make(chan error, 1)
	go func() { started <- nu.Start() }()
	var sizes []int64
	for seen, up := 0, false; !up; time.Sleep(time.Millisecond) {
		select {
		case err = <-started:
			up = true
		default:
		}
		if hits := fault.Hits(fault.SiteShmCopyIn); hits > seen {
			seen = hits
			if fi, err := os.Stat(segFile); err == nil {
				sizes = append(sizes, fi.Size())
			}
		}
	}
	fault.Reset()
	if err != nil {
		t.Fatal(err)
	}
	if rec := nu.Recovery(); rec.Path != RecoveryMemory || rec.Blocks != 4 {
		t.Fatalf("recovery = %+v, want 4 blocks from memory", rec)
	}
	if len(sizes) < 3 { // 4, unless this goroutine sat out a clone's whole wait
		t.Errorf("segment size before each clone = %v, want 4 of them", sizes)
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] >= sizes[i-1] {
			t.Errorf("segment did not shrink behind block %d: %v", i, sizes)
		}
	}
	if _, err := os.Stat(segFile); !os.IsNotExist(err) {
		t.Errorf("segment file survived its drain: %v", err)
	}
	if got := queryFingerprint(t, nu, "events"); got != want {
		t.Errorf("after the drain:\ngot  %s\nwant %s", got, want)
	}
}

func TestVersionSkewFallsBackToDisk(t *testing.T) {
	e := newEnv(t)
	old := startLeaf(t, e.config(0))
	ingest(t, old, "events", 200, 1000)
	if _, err := old.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// Rewrite metadata with a different layout version, as if the new
	// binary changed the shm layout (§4.2).
	m := shm.NewManager(0, shm.Options{Dir: e.shmDir, Namespace: "test"})
	md, err := m.ReadMetadata()
	if err != nil {
		t.Fatal(err)
	}
	md.Version = shm.LayoutVersion + 1
	if err := m.WriteMetadata(md); err != nil {
		t.Fatal(err)
	}
	nu := startLeaf(t, e.config(0))
	if nu.Recovery().Path != RecoveryDisk {
		t.Fatalf("recovery = %+v", nu.Recovery())
	}
	if got := countRows(t, nu, "events"); got != 200 {
		t.Errorf("count = %v", got)
	}
}

func TestInterruptedRestoreGoesToDiskNextTime(t *testing.T) {
	// Figure 7: the restore clears the valid bit before copying, so a
	// restore that dies mid-way leaves valid=false and the next start uses
	// disk.
	e := newEnv(t)
	old := startLeaf(t, e.config(0))
	ingest(t, old, "events", 100, 1000)
	if _, err := old.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// Manually clear the valid bit, emulating a restore that started and
	// then crashed.
	m := shm.NewManager(0, shm.Options{Dir: e.shmDir, Namespace: "test"})
	if err := m.Invalidate(); err != nil {
		t.Fatal(err)
	}
	nu := startLeaf(t, e.config(0))
	if nu.Recovery().Path != RecoveryDisk {
		t.Fatalf("recovery = %+v", nu.Recovery())
	}
	if got := countRows(t, nu, "events"); got != 100 {
		t.Errorf("count = %v", got)
	}
}

func TestDoubleRestartCycle(t *testing.T) {
	// Two consecutive shm rollovers, with new data between them.
	e := newEnv(t)
	l1 := startLeaf(t, e.config(0))
	ingest(t, l1, "events", 100, 1000)
	if _, err := l1.Shutdown(); err != nil {
		t.Fatal(err)
	}
	l2 := startLeaf(t, e.config(0))
	if l2.Recovery().Path != RecoveryMemory {
		t.Fatalf("first restart: %v", l2.Recovery().Path)
	}
	ingest(t, l2, "events", 50, 5000)
	if _, err := l2.Shutdown(); err != nil {
		t.Fatal(err)
	}
	l3 := startLeaf(t, e.config(0))
	if l3.Recovery().Path != RecoveryMemory {
		t.Fatalf("second restart: %v", l3.Recovery().Path)
	}
	if got := countRows(t, l3, "events"); got != 150 {
		t.Errorf("count = %v", got)
	}
}

func TestRequestsRejectedAfterShutdown(t *testing.T) {
	e := newEnv(t)
	l := startLeaf(t, e.config(0))
	ingest(t, l, "events", 10, 1000)
	if _, err := l.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := l.AddRows("events", []rowblock.Row{{Time: 1}}); !errors.Is(err, ErrNotAlive) {
		t.Errorf("add err = %v", err)
	}
	q := &query.Query{Table: "events", From: 0, To: 10,
		Aggregations: []query.Aggregation{{Op: query.AggCount}}}
	if _, err := l.Query(q); !errors.Is(err, ErrNotAlive) {
		t.Errorf("query err = %v", err)
	}
	if _, err := l.Shutdown(); err == nil {
		t.Error("double shutdown succeeded")
	}
}

func TestQueryMissingTable(t *testing.T) {
	e := newEnv(t)
	l := startLeaf(t, e.config(0))
	q := &query.Query{Table: "ghost", From: 0, To: 10,
		Aggregations: []query.Aggregation{{Op: query.AggCount}}}
	res, err := l.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 0 {
		t.Error("missing table returned groups")
	}
}

func TestStats(t *testing.T) {
	e := newEnv(t)
	cfg := e.config(3)
	cfg.MemoryBudget = 1 << 20
	l := startLeaf(t, cfg)
	ingest(t, l, "events", 1000, 1000)
	if err := l.SealAll(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.ID != 3 || st.State != StateAlive || st.Tables != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Rows != 1000 || st.Bytes == 0 {
		t.Errorf("rows/bytes = %d/%d", st.Rows, st.Bytes)
	}
	if st.FreeMemory != cfg.MemoryBudget-st.Bytes {
		t.Errorf("free = %d", st.FreeMemory)
	}
}

func TestExpireAll(t *testing.T) {
	e := newEnv(t)
	cfg := e.config(0)
	cfg.Table = table.Options{MaxAgeSeconds: 100}
	l := startLeaf(t, cfg)
	ingest(t, l, "events", 100, 1000)
	if err := l.SealAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.SyncToDisk(); err != nil {
		t.Fatal(err)
	}
	dropped, err := l.ExpireAll(5000)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Errorf("dropped = %d", dropped)
	}
	if got := countRows(t, l, "events"); got != 0 {
		t.Errorf("count = %v", got)
	}
}

func TestDiskOnlyShutdownPath(t *testing.T) {
	e := newEnv(t)
	l := startLeaf(t, e.config(0))
	ingest(t, l, "events", 250, 1000)
	info, err := l.ShutdownToDisk()
	if err != nil {
		t.Fatal(err)
	}
	if info.ToShm {
		t.Error("ToShm = true")
	}
	nu := startLeaf(t, e.config(0))
	if nu.Recovery().Path != RecoveryDisk {
		t.Fatalf("recovery = %v", nu.Recovery().Path)
	}
	if got := countRows(t, nu, "events"); got != 250 {
		t.Errorf("count = %v", got)
	}
}

// TestFailedDiskShutdownFlushesTheRest: the two clean shutdowns share one
// failure path. A disk shutdown whose first table cannot be persisted still
// seals and persists the tables its pool never reached, as a failed shm
// shutdown always did, and the next start answers every row from the store.
func TestFailedDiskShutdownFlushesTheRest(t *testing.T) {
	e := newEnv(t)
	l := startLeaf(t, e.config(0))
	for i := 0; i < 3; i++ {
		ingest(t, l, fmt.Sprintf("t%d", i), 100+10*i, int64(1000*i))
	}
	t.Cleanup(fault.Reset)
	if err := fault.ArmSpec(fault.SiteSnapWrite + "=error;count=1"); err != nil {
		t.Fatal(err)
	}
	_, err := l.ShutdownToDisk()
	fault.Reset()
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("shutdown err = %v, want the injected persist failure", err)
	}
	nu := startLeaf(t, e.config(0))
	if rec := nu.Recovery(); rec.Path != RecoveryDisk {
		t.Fatalf("recovery = %+v, want disk", rec)
	}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("t%d", i)
		if got, want := countRows(t, nu, name), float64(100+10*i); got != want {
			t.Errorf("%s count = %v, want %v", name, got, want)
		}
	}
}

func TestGraduallyIncreasingPartialResultsDuringDiskRecovery(t *testing.T) {
	// §4.1: "While the new process starts answering queries as soon as it
	// comes up, it only returns (gradually increasing) partial results to
	// those queries until it completes recovery." Query concurrently with
	// Start and watch the visible row count grow monotonically to the full
	// dataset. disk.image holds each image's load for 2 ms, so a query lands
	// while the load is half done whatever the machine's speed, and the test
	// must see a partial count.
	t.Cleanup(fault.Reset)
	e := newEnv(t)
	old := startLeaf(t, e.config(0))
	// Many blocks so recovery has visible intermediate states.
	for b := 0; b < 30; b++ {
		ingest(t, old, "events", 2000, int64(b*10000))
		if err := old.SealAll(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := old.ShutdownToDisk(); err != nil {
		t.Fatal(err)
	}

	nu, err := New(e.config(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.ArmSpec("disk.image=delay:2ms"); err != nil {
		t.Fatal(err)
	}
	started := make(chan error, 1)
	go func() { started <- nu.Start() }()

	q := &query.Query{Table: "events", From: 0, To: 1 << 40,
		Aggregations: []query.Aggregation{{Op: query.AggCount}}}
	var observations []float64
	for {
		select {
		case err := <-started:
			fault.Reset()
			if err != nil {
				t.Fatal(err)
			}
			// Final state: everything visible.
			if got := countRows(t, nu, "events"); got != 60000 {
				t.Fatalf("final count = %v", got)
			}
			prev := -1.0
			sawPartial := false
			for _, o := range observations {
				if o < prev {
					t.Fatalf("visible rows shrank: %v", observations)
				}
				if o > 0 && o < 60000 {
					sawPartial = true
				}
				prev = o
			}
			if !sawPartial {
				t.Fatalf("no partial count seen during the load: %v", observations)
			}
			return
		default:
		}
		res, err := nu.Query(q)
		if err != nil {
			continue // INIT or MEMORY_RECOVERY moment: not accepting yet
		}
		rows := res.Rows(q)
		if len(rows) > 0 {
			observations = append(observations, rows[0].Values[0])
		}
	}
}

func TestManyTablesRestartCycle(t *testing.T) {
	// Scuba leaves hold a fraction of *hundreds* of tables (§4.4); the
	// shutdown loop runs per table, one segment each. Exercise the loop
	// with many tables of different schemas.
	e := newEnv(t)
	old := startLeaf(t, e.config(0))
	const tables = 25
	for i := 0; i < tables; i++ {
		name := fmt.Sprintf("table-%02d", i)
		rows := make([]rowblock.Row, 40+i)
		for j := range rows {
			rows[j] = rowblock.Row{Time: int64(1000*i + j), Cols: map[string]rowblock.Value{
				fmt.Sprintf("col%d", i%5): rowblock.Int64Value(int64(j)),
			}}
		}
		if err := old.AddRows(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	info, err := old.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if info.Tables != tables {
		t.Fatalf("shutdown covered %d tables", info.Tables)
	}
	nu := startLeaf(t, e.config(0))
	if nu.Recovery().Path != RecoveryMemory || nu.Recovery().Tables != tables {
		t.Fatalf("recovery = %+v", nu.Recovery())
	}
	if got := len(nu.Tables()); got != tables {
		t.Fatalf("tables = %d", got)
	}
	for i := 0; i < tables; i++ {
		name := fmt.Sprintf("table-%02d", i)
		if got := countRows(t, nu, name); got != float64(40+i) {
			t.Errorf("%s count = %v, want %d", name, got, 40+i)
		}
	}
}

func TestConcurrentQueriesDuringShutdown(t *testing.T) {
	// Queries racing a shutdown either complete or get ErrNotAlive /
	// ErrNotAccepting — never a wrong answer, never a panic.
	e := newEnv(t)
	l := startLeaf(t, e.config(0))
	ingest(t, l, "events", 5000, 1000)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := &query.Query{Table: "events", From: 0, To: 1 << 40,
				Aggregations: []query.Aggregation{{Op: query.AggCount}}}
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := l.Query(q)
				if err != nil {
					if !errors.Is(err, ErrNotAlive) && !errors.Is(err, table.ErrNotAccepting) {
						t.Errorf("query error: %v", err)
					}
					return
				}
				if rows := res.Rows(q); len(rows) > 0 && rows[0].Values[0] != 5000 {
					t.Errorf("count = %v", rows[0].Values[0])
					return
				}
			}
		}()
	}
	if _, err := l.Shutdown(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
}

func TestLeafStateStringsAndTransitions(t *testing.T) {
	for s := StateInit; s <= StateExit; s++ {
		if s.String() == "" {
			t.Errorf("state %d unnamed", s)
		}
	}
	legal := map[[2]State]bool{
		{StateInit, StateMemoryRecovery}:         true,
		{StateInit, StateDiskRecovery}:           true,
		{StateInit, StateAlive}:                  true,
		{StateMemoryRecovery, StateAlive}:        true,
		{StateMemoryRecovery, StateDiskRecovery}: true,
		{StateDiskRecovery, StateAlive}:          true,
		{StateAlive, StateCopyToShm}:             true,
		{StateCopyToShm, StateExit}:              true,
	}
	all := []State{StateInit, StateMemoryRecovery, StateDiskRecovery, StateAlive, StateCopyToShm, StateExit}
	for _, from := range all {
		for _, to := range all {
			if got := CanTransition(from, to); got != legal[[2]State{from, to}] {
				t.Errorf("CanTransition(%v, %v) = %v", from, to, got)
			}
		}
	}
	var e error = &ErrBadTransition{From: StateExit, To: StateAlive}
	if e.Error() == "" {
		t.Error("empty transition error")
	}
}
