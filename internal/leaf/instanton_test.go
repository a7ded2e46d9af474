package leaf

import (
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"scuba/internal/fault"
	"scuba/internal/obs"
	"scuba/internal/query"
	"scuba/internal/shm"
	"scuba/internal/table"
)

// instantConfig is env.config with the instant-on restore enabled.
func (e env) instantConfig(id int) Config {
	cfg := e.config(id)
	cfg.InstantOn = true
	return cfg
}

// queryFingerprint runs a grouped multi-aggregate query and returns its full
// result as a canonical string, so tests can assert byte-identical answers
// across restarts and promotion states rather than just matching counts.
func queryFingerprint(t *testing.T, l *Leaf, tableName string) string {
	t.Helper()
	q := &query.Query{
		Table: tableName, From: 0, To: 1 << 40,
		GroupBy: []string{"service"},
		Aggregations: []query.Aggregation{
			{Op: query.AggCount},
			{Op: query.AggSum, Column: "latency"},
			{Op: query.AggMax, Column: "latency"},
		},
	}
	res, err := l.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res.Rows(q))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// waitPromoted polls until every shm-resident block has been promoted to the
// heap (ServedFromShm reaches zero).
func waitPromoted(t *testing.T, l *Leaf) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if l.Recovery().ServedFromShm == 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("promotion never drained: %+v", l.Recovery())
}

// segmentFiles lists this namespace's segment files still on "tmpfs"
// (excluding the flight recorder's, which lives outside the restore).
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.Contains(e.Name(), "tbl-") {
			out = append(out, e.Name())
		}
	}
	return out
}

func TestInstantOnRestartCycle(t *testing.T) {
	e := newEnv(t)
	old := startLeaf(t, e.config(0))
	// Several sealed blocks per table so promotion has real work.
	for i := 0; i < 3; i++ {
		ingest(t, old, "events", 400, int64(1000+400*i))
		ingest(t, old, "errors", 200, int64(5000+200*i))
		if err := old.SealAll(); err != nil {
			t.Fatal(err)
		}
	}
	wantEvents := queryFingerprint(t, old, "events")
	wantErrors := queryFingerprint(t, old, "errors")
	if _, err := old.Shutdown(); err != nil {
		t.Fatal(err)
	}

	nu := startLeaf(t, e.instantConfig(0))
	defer nu.stopPromoter()
	rec := nu.Recovery()
	if rec.Path != RecoveryShmView {
		t.Fatalf("recovery path = %v (%+v)", rec.Path, rec)
	}
	if rec.Tables != 2 || rec.Blocks == 0 {
		t.Errorf("recovery = %+v", rec)
	}
	// Metadata is consumed at restore time: a crash mid-promotion must go to
	// WAL/disk, never to a half-consumed backup.
	m := shm.NewManager(0, shm.Options{Dir: e.shmDir, Namespace: "test"})
	if _, err := m.ReadMetadata(); err == nil {
		t.Error("metadata still present after instant-on restore")
	}
	// Results are correct immediately, while blocks are still shm-resident.
	if got := queryFingerprint(t, nu, "events"); got != wantEvents {
		t.Errorf("events during promotion:\ngot  %s\nwant %s", got, wantEvents)
	}
	if got := queryFingerprint(t, nu, "errors"); got != wantErrors {
		t.Errorf("errors during promotion:\ngot  %s\nwant %s", got, wantErrors)
	}

	waitPromoted(t, nu)
	if rec := nu.Recovery(); rec.PromotedBlocks == 0 {
		t.Errorf("no promoted blocks recorded: %+v", rec)
	}
	// Identical again once everything is heap-side...
	if got := queryFingerprint(t, nu, "events"); got != wantEvents {
		t.Errorf("events after promotion:\ngot  %s\nwant %s", got, wantEvents)
	}
	// ...and the drained segments delete their files.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if files := segmentFiles(t, e.shmDir); len(files) == 0 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("segment files still present after promotion: %v", files)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The promoted leaf shuts down to shm and restarts like any other.
	if _, err := nu.Shutdown(); err != nil {
		t.Fatal(err)
	}
	third := startLeaf(t, e.config(0))
	if third.Recovery().Path != RecoveryMemory {
		t.Fatalf("post-promotion restart = %+v", third.Recovery())
	}
	if got := queryFingerprint(t, third, "events"); got != wantEvents {
		t.Errorf("events after second restart:\ngot  %s\nwant %s", got, wantEvents)
	}
}

func TestInstantOnIngestAfterRestore(t *testing.T) {
	e := newEnv(t)
	old := startLeaf(t, e.config(0))
	ingest(t, old, "events", 300, 1000)
	if _, err := old.Shutdown(); err != nil {
		t.Fatal(err)
	}
	nu := startLeaf(t, e.instantConfig(0))
	defer nu.stopPromoter()
	// New rows land in fresh builders beside the shm-resident blocks.
	ingest(t, nu, "events", 50, 9000)
	if got := countRows(t, nu, "events"); got != 350 {
		t.Errorf("count = %v, want 350", got)
	}
}

// TestInstantOnMapFaultQuarantinesToStore arms shm.map past the metadata
// read: every segment open fails, and with one reader there is no second way
// into a segment, so each table is quarantined to the store — same data, no
// instant-on.
func TestInstantOnMapFaultQuarantinesToStore(t *testing.T) {
	e := newEnv(t)
	old := startLeaf(t, e.config(0))
	ingest(t, old, "events", 500, 1000)
	want := queryFingerprint(t, old, "events")
	if _, err := old.Shutdown(); err != nil {
		t.Fatal(err)
	}

	t.Cleanup(fault.Reset)
	if err := fault.ArmSpec(fault.SiteShmMap + "=error;after=1"); err != nil {
		t.Fatal(err)
	}
	nu := startLeaf(t, e.instantConfig(0))
	fault.Reset()
	rec := nu.Recovery()
	if rec.Path != RecoveryDisk || rec.Quarantined != 1 || rec.FellBack {
		t.Fatalf("recovery = %+v, want one table quarantined to %v", rec, RecoveryDisk)
	}
	if rec.ServedFromShm != 0 {
		t.Errorf("served_from_shm = %d after quarantine", rec.ServedFromShm)
	}
	if got := queryFingerprint(t, nu, "events"); got != want {
		t.Errorf("quarantined restore:\ngot  %s\nwant %s", got, want)
	}
	if files := segmentFiles(t, e.shmDir); len(files) != 0 {
		t.Errorf("segment files left behind: %v", files)
	}
}

// TestInstantOnPromotionFaultKeepsServingFromShm arms shm.copy_in, which an
// instant-on start reaches only in the promoter: every promotion attempt fails, blocks stay shm-resident, and queries keep
// answering correctly from the mapping.
func TestInstantOnPromotionFaultKeepsServingFromShm(t *testing.T) {
	e := newEnv(t)
	old := startLeaf(t, e.config(0))
	ingest(t, old, "events", 500, 1000)
	want := queryFingerprint(t, old, "events")
	if _, err := old.Shutdown(); err != nil {
		t.Fatal(err)
	}

	t.Cleanup(fault.Reset)
	if err := fault.ArmSpec(fault.SiteShmCopyIn + "=error"); err != nil {
		t.Fatal(err)
	}
	nu := startLeaf(t, e.instantConfig(0))
	defer nu.stopPromoter()
	rec := nu.Recovery()
	if rec.Path != RecoveryShmView || rec.ServedFromShm == 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	// Give the (failing) promoter time to try every block, then verify the
	// blocks are all still shm-resident and still correct.
	time.Sleep(50 * time.Millisecond)
	if rec := nu.Recovery(); rec.ServedFromShm == 0 || rec.PromotedBlocks != 0 {
		t.Errorf("blocks moved despite armed shm.copy_in: %+v", rec)
	}
	if got := queryFingerprint(t, nu, "events"); got != want {
		t.Errorf("shm-resident serve:\ngot  %s\nwant %s", got, want)
	}
}

// TestInstantOnPromotionCatchesDamagedClone damages one block's heap copy
// (shm.copy_in=corrupt;count=1). The promoter's per-column check must refuse
// it: that block is replaced by the store's image of its rows, with a fail
// event, every other block is promoted, and answers never change.
func TestInstantOnPromotionCatchesDamagedClone(t *testing.T) {
	e := newEnv(t)
	old := startLeaf(t, e.config(0))
	for i := 0; i < 3; i++ {
		ingest(t, old, "events", 400, int64(1000+400*i))
		if err := old.SealAll(); err != nil {
			t.Fatal(err)
		}
	}
	want := queryFingerprint(t, old, "events")
	if _, err := old.Shutdown(); err != nil {
		t.Fatal(err)
	}

	t.Cleanup(fault.Reset)
	if err := fault.ArmSpec(fault.SiteShmCopyIn + "=corrupt;count=1"); err != nil {
		t.Fatal(err)
	}
	cfg := e.instantConfig(0)
	cfg.Obs, _ = newObserver(t, e, 0)
	nu := startLeaf(t, cfg)
	defer nu.stopPromoter()
	<-nu.promo.done
	if rec := nu.Recovery(); rec.ServedFromShm != 0 || rec.PromotedBlocks != 2 || rec.PerTablePath[0].BlocksReplaced != 1 {
		t.Errorf("recovery = %+v, want 1 block replaced and 2 promoted", rec)
	}
	fails := 0
	for _, ev := range cfg.Obs.Recorder().Events() {
		if ev.Kind == obs.EventFail && ev.Phase == obs.PhasePromote && strings.Contains(ev.Detail, "checksum") {
			fails++
		}
	}
	if fails != 1 {
		t.Errorf("%d promote fail events naming a checksum, want 1", fails)
	}
	if got := queryFingerprint(t, nu, "events"); got != want {
		t.Errorf("after the replaced block:\ngot  %s\nwant %s", got, want)
	}
}

// TestInstantOnScanPinsViewAcrossExpiry is the refcount race: a scan
// snapshots a shm-resident block, then retention expires that block while
// the scan is still reading. The segment's file goes with the last
// residency; the mapping must stay, readable, until the scan drains, and only
// then unmap.
func TestInstantOnScanPinsViewAcrossExpiry(t *testing.T) {
	e := newEnv(t)
	clock := int64(10_000)
	cfg := e.config(0)
	cfg.Clock = func() int64 { return clock }
	cfg.Table = table.Options{MaxAgeSeconds: 1 << 30}
	old := startLeaf(t, cfg)
	ingest(t, old, "events", 400, 1000)
	if _, err := old.Shutdown(); err != nil {
		t.Fatal(err)
	}

	nucfg := cfg
	nucfg.InstantOn = true
	// Park promotion so the block under test stays shm-resident until expiry
	// gets to it.
	t.Cleanup(fault.Reset)
	if err := fault.ArmSpec(fault.SiteShmCopyIn + "=error"); err != nil {
		t.Fatal(err)
	}
	nu := startLeaf(t, nucfg)
	defer nu.stopPromoter()

	nu.mu.Lock()
	tbl := nu.tables["events"]
	nu.mu.Unlock()
	if tbl == nil || tbl.ForeignBlocks() == 0 {
		t.Fatalf("no shm-resident blocks to pin")
	}
	src := tbl.Blocks()[0].Source()
	if src == nil {
		t.Fatal("block has no source")
	}
	view := src.(*shm.MappedView)

	scanning := make(chan struct{})
	release := make(chan struct{})
	scanDone := make(chan error, 1)
	go func() {
		scanDone <- tbl.ScanView(0, 1<<40, readPinned(scanning, release))
	}()
	<-scanning

	// Expire everything: the rows are ancient relative to the advanced clock.
	clock += 1 << 31
	if _, err := tbl.Expire(clock); err != nil {
		t.Fatal(err)
	}
	if got := len(tbl.Blocks()); got != 0 {
		t.Fatalf("expiry left %d blocks", got)
	}
	// The scan still pins the view: mapped, refs held; the file is gone.
	if view.Refs() == 0 {
		t.Fatal("view drained while a scan still reads it")
	}
	if files := segmentFiles(t, e.shmDir); len(files) != 0 {
		t.Fatalf("segment files %v outlived the last residency", files)
	}

	close(release)
	if err := <-scanDone; err != nil {
		t.Fatal(err)
	}
	// The parked promoter may still be pinning the view for a failing clone.
	eventually(t, "the view unmapped after the scan drained", func() bool { return view.Refs() == 0 })
}

// readPinned is a ScanView callback that holds its view until release, then
// reads every byte of each block it pinned: a mapping released under it
// faults here.
func readPinned(scanning, release chan struct{}) func(table.View) error {
	return func(v table.View) error {
		close(scanning)
		<-release
		for _, rb := range v.Blocks {
			rb.AppendImage(nil)
		}
		return nil
	}
}

// TestInstantOnLastPromotionUnlinksBesideAScan: a scan holds the view's
// blocks inside ScanView's callback across every promotion. While it pins
// the view the segment file keeps its size — the promoter moves blocks
// newest first, and a view that cut its tail under the pin would fault the
// scan's reads of the blocks promoted meanwhile. Once ServedFromShm reads 0
// the shm directory holds no segment, and the scan's reads of the blocks it
// pinned stay valid until it returns.
func TestInstantOnLastPromotionUnlinksBesideAScan(t *testing.T) {
	e := newEnv(t)
	old := startLeaf(t, e.config(0))
	for i := 0; i < 3; i++ {
		ingest(t, old, "events", 400, int64(1000+400*i))
		if err := old.SealAll(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := old.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// Hold every clone back long enough for the scan to pin the view first.
	t.Cleanup(fault.Reset)
	if err := fault.ArmSpec(fault.SiteShmCopyIn + "=delay:50ms"); err != nil {
		t.Fatal(err)
	}
	nu := startLeaf(t, e.instantConfig(0))
	defer nu.stopPromoter()
	scanning, release := make(chan struct{}), make(chan struct{})
	scanDone := make(chan error, 1)
	go func() {
		scanDone <- nu.Table("events").ScanView(0, 1<<40, readPinned(scanning, release))
	}()
	<-scanning
	segFile := tableSegmentFile(t, e, "events")
	whole, err := os.Stat(segFile)
	if err != nil {
		t.Fatal(err)
	}
	for nu.Recovery().ServedFromShm > 0 {
		if fi, err := os.Stat(segFile); err == nil && fi.Size() != whole.Size() {
			// Leave the scan parked: its reads would fault past the cut.
			t.Fatalf("segment cut to %d of %d bytes under a scan's pin", fi.Size(), whole.Size())
		}
		time.Sleep(time.Millisecond)
	}
	if files := segmentFiles(t, e.shmDir); len(files) != 0 {
		t.Errorf("ServedFromShm reads 0, yet segment files %v are left", files)
	}
	close(release)
	if err := <-scanDone; err != nil {
		t.Fatal(err)
	}
}

// TestInstantOnCrashMidPromotionRecovers abandons an instant-on leaf without
// any shutdown (the in-process stand-in for kill -9 while promotion still
// has shm-resident blocks). The metadata's valid bit was consumed at restore
// time, so the replacement must come up via the normal crash paths with
// nothing lost and no stale segment files.
func TestInstantOnCrashMidPromotionRecovers(t *testing.T) {
	e := newEnv(t)
	cfg := e.config(0)
	cfg.WALDir = filepath.Join(e.diskDir, "wal")
	old := startLeaf(t, cfg)
	ingest(t, old, "events", 600, 1000)
	want := queryFingerprint(t, old, "events")
	if _, err := old.Shutdown(); err != nil {
		t.Fatal(err)
	}

	t.Cleanup(fault.Reset)
	if err := fault.ArmSpec(fault.SiteShmCopyIn + "=error"); err != nil {
		t.Fatal(err)
	}
	crashCfg := cfg
	crashCfg.InstantOn = true
	crashed := startLeaf(t, crashCfg)
	if rec := crashed.Recovery(); rec.Path != RecoveryShmView || rec.ServedFromShm == 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	crashed.stopPromoter()
	fault.Reset()
	// No shutdown: the "process" dies here with every block still in shm.

	repl := startLeaf(t, cfg)
	rec := repl.Recovery()
	if rec.Path != RecoveryWAL && rec.Path != RecoveryDisk {
		t.Fatalf("replacement path = %v, want wal or disk: %+v", rec.Path, rec)
	}
	if got := queryFingerprint(t, repl, "events"); got != want {
		t.Errorf("post-crash recovery:\ngot  %s\nwant %s", got, want)
	}
}

// TestInstantOnEmptyLeaf exercises a restore with zero tables and checks the
// restart's last gap span, first_answer, ends exactly once.
func TestInstantOnEmptyLeaf(t *testing.T) {
	e := newEnv(t)
	old := startLeaf(t, e.config(0))
	if _, err := old.Shutdown(); err != nil {
		t.Fatal(err)
	}
	nu := startLeaf(t, e.instantConfig(0))
	if n := len(nu.RestartTrace().Phases(obs.PhaseFirstAnswer)); n != 0 {
		t.Errorf("%d first_answer spans before any query", n)
	}
	if got := countRows(t, nu, "missing"); got != 0 {
		t.Errorf("count = %v", got)
	}
	if got := countRows(t, nu, "missing"); got != 0 {
		t.Errorf("count = %v", got)
	}
	if n := len(nu.RestartTrace().Phases(obs.PhaseFirstAnswer)); n != 1 {
		t.Errorf("first_answer spans = %d, want exactly 1", n)
	}
}

// TestSegmentGenerationNames: copy-out names segments with a generation
// suffix so consecutive backups never truncate a mapped file.
func TestSegmentGenerationNames(t *testing.T) {
	for _, tc := range []struct {
		gen  int64
		want string
	}{
		{0, shm.SegmentNameForTable("x")},
		{-1, shm.SegmentNameForTable("x")},
		{42, shm.SegmentNameForTable("x") + ".g42"},
	} {
		if got := shm.SegmentNameForTableGen("x", tc.gen); got != tc.want {
			t.Errorf("SegmentNameForTableGen(x, %d) = %q, want %q", tc.gen, got, tc.want)
		}
	}
}

// TestFirstReadsRace: scans on four goroutines, the promoter and expiry take
// their first reads of one instant-on view at once, and one block's column
// is damaged. Run under -race it is the check that a block's one check, its
// replacement from the store, its promotion, its expiry, the decode cache
// the scans fill and the view's cuts of its tail share nothing unguarded,
// and one more goroutine reads the recovery record the replacement updates,
// as /debug/recovery does. The damaged block is replaced exactly once, every
// answer over the rows retention keeps is the reference's, and no segment
// file is left once every block is off shm.
func TestFirstReadsRace(t *testing.T) {
	const now = 1700000000 + 1000
	e := newEnv(t)
	cfg := e.config(0)
	setProcs(t, 4)
	cfg.Clock = func() int64 { return now }
	cfg.Table = table.Options{MaxAgeSeconds: 940} // the first three blocks expire
	old := startLeaf(t, cfg)
	rows := driftRows(rand.New(rand.NewSource(9)), 9000, 0) // 20 s of event time a block
	for at := 0; at < len(rows); at += 1000 {
		if err := old.AddRows("events", rows[at:at+1000]); err != nil {
			t.Fatal(err)
		}
		if err := old.SealAll(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := old.Shutdown(); err != nil {
		t.Fatal(err)
	}
	segFile := tableSegmentFile(t, e, "events")
	raw, err := os.ReadFile(segFile)
	if err != nil {
		t.Fatal(err)
	}
	raw[binary.LittleEndian.Uint64(raw[16:])-20] ^= 0x10 // in the last block's last column
	if err := os.WriteFile(segFile, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	q := &query.Query{Table: "events", From: 1700000060, To: 1 << 40, GroupBy: []string{"service"},
		Filters:      []query.Filter{{Column: "tags", Op: query.OpContains, Str: "prod"}},
		Aggregations: []query.Aggregation{{Op: query.AggCount}, {Op: query.AggSum, Column: "seq"}, {Op: query.AggMax, Column: "ratio"}}}
	answer := func(res *query.Result) string {
		b, err := json.Marshal(res.Rows(q))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	ref, err := query.Reference(rows[3000:], q)
	if err != nil {
		t.Fatal(err)
	}
	want := answer(ref)

	cfg.InstantOn = true
	cfg.DecodeCacheBytes = 1 << 20 // cached columns beside the cuts
	nu := startLeaf(t, cfg)
	defer nu.stopPromoter()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				res, err := nu.Query(q)
				if err != nil {
					t.Error(err)
					return
				}
				if got := answer(res); got != want {
					t.Errorf("answer beside the first reads:\ngot  %s\nwant %s", got, want)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := nu.ExpireAll(now); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	stop := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for {
			if _, err := json.Marshal(nu.Recovery()); err != nil {
				t.Error(err)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	wg.Wait()
	<-nu.promo.done
	close(stop)
	<-polled
	if rec := nu.Recovery(); rec.ServedFromShm != 0 || rec.PerTablePath[0].BlocksReplaced != 1 || rec.PerTablePath[0].BlocksDropped != 0 {
		t.Fatalf("recovery = %+v, want every block off shm and the damaged one replaced once", rec)
	}
	if files := segmentFiles(t, e.shmDir); len(files) != 0 {
		t.Errorf("segment files left once every block is off shm: %v", files)
	}
	res, err := nu.Query(q)
	if err != nil || answer(res) != want {
		t.Fatalf("answer after the promotion: %v", err)
	}
}
