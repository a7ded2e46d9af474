package leaf

// Concurrency harness for the parallel restart path: serial/parallel
// equivalence, worker fault injection on both halves, and a
// shutdown-while-ingesting hammer meant to run under -race.

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scuba/internal/fault"
	"scuba/internal/obs"
	"scuba/internal/rowblock"
	"scuba/internal/shm"
	"scuba/internal/table"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata")

// seedTables ingests a deterministic pseudo-random dataset of 8 tables.
// Each batch seals into its own block, and the first row of every batch
// carries only the "latency" column so the builder registers columns one at
// a time — that makes the sealed block images byte-deterministic across
// leaves fed the same seed.
func seedTables(t *testing.T, l *Leaf, seed int64) map[string]int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	counts := make(map[string]int)
	for ti := 0; ti < 8; ti++ {
		name := fmt.Sprintf("tbl-%02d", ti)
		batches := 1 + rng.Intn(4)
		for b := 0; b < batches; b++ {
			n := 20 + rng.Intn(200)
			rows := make([]rowblock.Row, n)
			for i := range rows {
				cols := map[string]rowblock.Value{
					"latency": rowblock.Int64Value(int64(rng.Intn(1000))),
				}
				if i > 0 {
					cols["service"] = rowblock.StringValue(fmt.Sprintf("svc-%d", rng.Intn(6)))
				}
				rows[i] = rowblock.Row{Time: int64(rng.Intn(1 << 20)), Cols: cols}
			}
			if err := l.AddRows(name, rows); err != nil {
				t.Fatal(err)
			}
			if err := l.SealAll(); err != nil {
				t.Fatal(err)
			}
			counts[name] += n
		}
	}
	return counts
}

// tableImages serializes every sealed block of every table.
func tableImages(t *testing.T, l *Leaf) map[string][][]byte {
	t.Helper()
	out := make(map[string][][]byte)
	for _, name := range l.Tables() {
		var imgs [][]byte
		for _, rb := range l.Table(name).Blocks() {
			imgs = append(imgs, rb.AppendImage(nil))
		}
		out[name] = imgs
	}
	return out
}

// checkPerTable asserts the stat breakdown is sorted, covers every table
// once, and sums to the given totals.
func checkPerTable(t *testing.T, what string, stats []TableCopyStat, tables, blocks int, bytesTotal int64) {
	t.Helper()
	if len(stats) != tables {
		t.Fatalf("%s: %d per-table stats, want %d", what, len(stats), tables)
	}
	var sumBlocks int
	var sumBytes int64
	for i, st := range stats {
		if i > 0 && stats[i-1].Table >= st.Table {
			t.Errorf("%s: stats not sorted: %q before %q", what, stats[i-1].Table, st.Table)
		}
		sumBlocks += st.Blocks
		sumBytes += st.Bytes
	}
	if sumBlocks != blocks || sumBytes != bytesTotal {
		t.Errorf("%s: per-table sums %d blocks / %d bytes, totals say %d / %d",
			what, sumBlocks, sumBytes, blocks, bytesTotal)
	}
}

// TestParallelRestartMatchesSerial is the equivalence property test: a full
// shutdown+restore cycle with an N-worker pool must restore row blocks
// byte-for-byte identical to the 1-worker (serial) cycle over the same
// deterministic dataset.
func TestParallelRestartMatchesSerial(t *testing.T) {
	const seed = 0xC0FFEE
	fixedClock := func() int64 { return 1_700_000_000 }

	run := func(workers int) (map[string][][]byte, ShutdownInfo, RecoveryInfo) {
		setProcs(t, workers)
		e := newEnv(t)
		cfg := e.config(0)
		cfg.Clock = fixedClock
		l := startLeaf(t, cfg)
		seedTables(t, l, seed)
		sinfo, err := l.Shutdown()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		nu := startLeaf(t, cfg)
		rec := nu.Recovery()
		if rec.Path != RecoveryMemory {
			t.Fatalf("workers=%d: recovery = %+v", workers, rec)
		}
		return tableImages(t, nu), sinfo, rec
	}

	base, baseShut, baseRec := run(1)
	if baseShut.Workers != 1 || baseRec.Workers != 1 {
		t.Fatalf("serial cycle ran with %d/%d workers", baseShut.Workers, baseRec.Workers)
	}
	for _, workers := range []int{2, 4, 8} {
		imgs, sinfo, rec := run(workers)
		if sinfo.Workers != workers {
			t.Errorf("shutdown ran with %d workers, want %d", sinfo.Workers, workers)
		}
		checkPerTable(t, fmt.Sprintf("shutdown w=%d", workers), sinfo.PerTable,
			sinfo.Tables, sinfo.Blocks, sinfo.BytesCopied)
		checkPerTable(t, fmt.Sprintf("restore w=%d", workers), rec.PerTable,
			rec.Tables, rec.Blocks, rec.BytesRestored)
		if len(imgs) != len(base) {
			t.Fatalf("workers=%d restored %d tables, serial %d", workers, len(imgs), len(base))
		}
		for name, want := range base {
			got, ok := imgs[name]
			if !ok {
				t.Errorf("workers=%d: table %q missing", workers, name)
				continue
			}
			if len(got) != len(want) {
				t.Errorf("workers=%d: %q has %d blocks, serial %d", workers, name, len(got), len(want))
				continue
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Errorf("workers=%d: %q block %d differs from serial image", workers, name, i)
				}
			}
		}
	}
}

// TestWorkerFailureDuringShutdown fails one copy worker's block and checks
// the whole shutdown rolls back: no metadata, no orphaned segments of any
// table (including ones whose writers had already finished — the satellite
// regression), and the next start serves full results from disk.
func TestWorkerFailureDuringShutdown(t *testing.T) {
	e := newEnv(t)
	setProcs(t, 4)
	l := startLeaf(t, e.config(0))
	for i := 0; i < 6; i++ {
		ingest(t, l, fmt.Sprintf("t%d", i), 200+10*i, int64(1000*i))
	}
	boom := errors.New("boom")
	t.Cleanup(fault.Reset)
	fault.Arm(fault.Point{Site: fault.SiteShmCopyOut, Action: fault.ActError, Err: boom, After: 3, Count: 1})
	_, err := l.Shutdown()
	fault.Reset()
	if !errors.Is(err, boom) {
		t.Fatalf("shutdown err = %v, want injected fault", err)
	}
	m := shm.NewManager(0, shm.Options{Dir: e.shmDir, Namespace: "test"})
	if _, err := m.ReadMetadata(); !errors.Is(err, shm.ErrNoMetadata) {
		t.Errorf("metadata survived failed shutdown: %v", err)
	}
	entries, err := os.ReadDir(e.shmDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		var names []string
		for _, en := range entries {
			names = append(names, en.Name())
		}
		t.Errorf("orphaned shm files after failed shutdown: %v", names)
	}
	nu := startLeaf(t, e.config(0))
	rec := nu.Recovery()
	if rec.Path != RecoveryDisk {
		t.Fatalf("recovery = %+v, want disk", rec)
	}
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("t%d", i)
		if got, want := countRows(t, nu, name), float64(200+10*i); got != want {
			t.Errorf("%s count = %v, want %v", name, got, want)
		}
	}
}

// TestWorkerFailureDuringRestore fails one block's copy-in; the leaf must
// quarantine exactly that block's table to the disk path, restore the other
// five from shared memory, report a mixed recovery, and serve full results
// for every table — including the quarantined one — with no leftover shm.
func TestWorkerFailureDuringRestore(t *testing.T) {
	e := newEnv(t)
	setProcs(t, 4)
	old := startLeaf(t, e.config(0))
	for i := 0; i < 6; i++ {
		ingest(t, old, fmt.Sprintf("t%d", i), 150+i, int64(1000*i))
	}
	if _, err := old.Shutdown(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Reset)
	fault.Arm(fault.Point{Site: fault.SiteShmCopyIn, Action: fault.ActError, After: 2, Count: 1})
	nu := startLeaf(t, e.config(0))
	fault.Reset()
	rec := nu.Recovery()
	if rec.Path != RecoveryMixed || rec.FellBack {
		t.Fatalf("recovery = %+v, want mixed (no whole-restore fallback)", rec)
	}
	if rec.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1: %+v", rec.Quarantined, rec.PerTablePath)
	}
	for _, tr := range rec.PerTablePath {
		want := RecoveryMemory
		if strings.Contains(tr.Reason, fault.ErrInjected.Error()) {
			want = RecoveryDisk
		}
		if tr.Path != want {
			t.Errorf("table %s path = %s (%s), want %s", tr.Table, tr.Path, tr.Reason, want)
		}
	}
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("t%d", i)
		if got, want := countRows(t, nu, name), float64(150+i); got != want {
			t.Errorf("%s count = %v, want %v", name, got, want)
		}
	}
	m := shm.NewManager(0, shm.Options{Dir: e.shmDir, Namespace: "test"})
	if _, err := m.ReadMetadata(); !errors.Is(err, shm.ErrNoMetadata) {
		t.Errorf("metadata survived restore: %v", err)
	}
}

// TestShutdownWhileIngesting hammers a parallel shutdown with concurrent
// ingest (run it under -race). Every AddRows either succeeds — and its rows
// must survive the restart — or is rejected with the state-machine errors;
// nothing is silently dropped.
func TestShutdownWhileIngesting(t *testing.T) {
	e := newEnv(t)
	setProcs(t, 4)
	l := startLeaf(t, e.config(0))
	const ingesters = 4
	for g := 0; g < ingesters; g++ {
		ingest(t, l, fmt.Sprintf("t%d", g), 50, 0)
	}
	var accepted [ingesters]int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < ingesters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("t%d", g)
			for batch := int64(0); ; batch++ {
				select {
				case <-stop:
					return
				default:
				}
				rows := make([]rowblock.Row, 20)
				for i := range rows {
					rows[i] = rowblock.Row{Time: batch*100 + int64(i), Cols: map[string]rowblock.Value{
						"v": rowblock.Int64Value(int64(i)),
					}}
				}
				if err := l.AddRows(name, rows); err != nil {
					if !errors.Is(err, ErrNotAlive) && !errors.Is(err, table.ErrNotAccepting) {
						t.Errorf("add error: %v", err)
					}
					return
				}
				atomic.AddInt64(&accepted[g], 20)
			}
		}(g)
	}
	time.Sleep(5 * time.Millisecond) // let the ingesters race the shutdown
	if _, err := l.Shutdown(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	nu := startLeaf(t, e.config(0))
	if nu.Recovery().Path != RecoveryMemory {
		t.Fatalf("recovery = %+v", nu.Recovery())
	}
	for g := 0; g < ingesters; g++ {
		name := fmt.Sprintf("t%d", g)
		want := float64(50 + atomic.LoadInt64(&accepted[g]))
		if got := countRows(t, nu, name); got != want {
			t.Errorf("%s count = %v, want %v", name, got, want)
		}
	}
}

// TestPoolSizeIsCoresClampedToJobs checks the pool's size through the reported
// info: the cores this process may run on, not the host's — a leaf given one
// core starts one worker however many the machine has — and never more workers
// than tables.
func TestPoolSizeIsCoresClampedToJobs(t *testing.T) {
	e := newEnv(t)
	setProcs(t, 8)
	l := startLeaf(t, e.config(0))
	ingest(t, l, "only", 30, 0)
	ingest(t, l, "pair", 30, 0)
	info, err := l.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if info.Workers != 2 {
		t.Errorf("shutdown workers = %d, want clamp to 2 tables", info.Workers)
	}
	runtime.GOMAXPROCS(1)
	if rec := startLeaf(t, e.config(0)).Recovery(); rec.Workers != 1 {
		t.Errorf("restore workers = %d with GOMAXPROCS 1, want 1", rec.Workers)
	}
}

// TestBackgroundPoolLeavesACore pins fanOut's sizing rule by what its jobs
// see: the promoter's backgroundPool, which runs beside queries, has at most
// GOMAXPROCS-1 jobs running at once and never fewer than one; Start's and the
// shutdowns' pools, which nothing runs beside, have GOMAXPROCS.
func TestBackgroundPoolLeavesACore(t *testing.T) {
	const jobs = 6
	highWater := func(kind poolKind) (int, int) {
		var running, most atomic.Int64
		workers, _ := fanOut(context.Background(), kind, jobs, func(int) int64 { return 0 }, func(context.Context, int, int) error {
			n := running.Add(1)
			for m := most.Load(); n > m && !most.CompareAndSwap(m, n); m = most.Load() {
			}
			time.Sleep(10 * time.Millisecond)
			running.Add(-1)
			return nil
		})
		return int(most.Load()), workers
	}
	for _, c := range []struct{ procs, background, foreground int }{{2, 1, 2}, {1, 1, 1}} {
		setProcs(t, c.procs)
		for _, k := range []struct {
			kind poolKind
			name string
			want int
		}{{backgroundPool, "background", c.background}, {startPool, "start", c.foreground}, {shutdownPool, "shutdown", c.foreground}} {
			if most, workers := highWater(k.kind); most != k.want || workers != k.want {
				t.Errorf("GOMAXPROCS %d, %s pool: %d jobs at once on %d workers, want %d", c.procs, k.name, most, workers, k.want)
			}
		}
	}
}

// TestTableSpansNameTheirWorker: which pool worker carried which table, and
// how much, is in the restart spans of both halves of the cycle.
func TestTableSpansNameTheirWorker(t *testing.T) {
	e := newEnv(t)
	cfg := e.config(0)
	const procs = 2
	setProcs(t, procs)
	cfg.Obs, _ = newObserver(t, e, 0) // the ring hands the shutdown half over
	l := startLeaf(t, cfg)
	ingest(t, l, "a", 100, 0)
	ingest(t, l, "b", 100, 0)
	if _, err := l.Shutdown(); err != nil {
		t.Fatal(err)
	}
	nu := startLeaf(t, cfg)
	for _, half := range []string{obs.HalfShutdown, obs.HalfStart} {
		worker := map[string]int{}
		var bytes int64
		for _, sp := range nu.RestartTrace().Half(half) {
			if sp.Table == "" {
				continue
			}
			if sp.Worker < 0 || sp.Worker >= procs {
				t.Errorf("%s %s of %q ran on worker %d of a pool of %d", half, sp.Phase, sp.Table, sp.Worker, procs)
			}
			if w, seen := worker[sp.Table]; seen && w != sp.Worker {
				t.Errorf("%s: table %q moved from worker %d to %d mid-restart", half, sp.Table, w, sp.Worker)
			}
			worker[sp.Table] = sp.Worker
			bytes += sp.Bytes
		}
		if len(worker) != 2 || bytes == 0 {
			t.Errorf("%s half: spans name %d tables and %d bytes, want 2 tables and their bytes", half, len(worker), bytes)
		}
	}
}

// TestGoldenMetadataFixture pins the on-disk metadata encoding for the
// current LayoutVersion to a golden fixture: the encoding may only change
// together with a version bump, because a restoring binary decides
// shm-vs-disk by decoding exactly these bytes.
func TestGoldenMetadataFixture(t *testing.T) {
	canonical := &shm.Metadata{
		Valid:   true,
		Version: shm.LayoutVersion,
		Created: 1_700_000_000,
		Segments: []shm.SegmentInfo{
			{Table: "events", Segment: shm.SegmentNameForTable("events")},
			{Table: "perf metrics", Segment: shm.SegmentNameForTable("perf metrics")},
			{Table: "errors", Segment: shm.SegmentNameForTable("errors")},
		},
	}
	dir := t.TempDir()
	m := shm.NewManager(0, shm.Options{Dir: dir, Namespace: "test"})
	if err := m.WriteMetadata(canonical); err != nil {
		t.Fatal(err)
	}
	// The metadata location is the hard-coded per-leaf path of §4.2.
	metaPath := filepath.Join(dir, "test-leaf0-meta")
	raw, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", fmt.Sprintf("metadata-v%d.golden", shm.LayoutVersion))
	if *updateGolden {
		if err := os.WriteFile(golden, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want) {
		t.Fatalf("metadata encoding changed for layout version %d (got %d bytes, golden %d); bump shm.LayoutVersion instead of changing the encoding in place",
			shm.LayoutVersion, len(raw), len(want))
	}
	// The golden bytes must decode to exactly the canonical struct.
	if err := os.WriteFile(metaPath, want, 0o644); err != nil {
		t.Fatal(err)
	}
	md, err := m.ReadMetadata()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(md, canonical) {
		t.Fatalf("golden decode = %+v, want %+v", md, canonical)
	}
}

// TestParallelShutdownMetadataRoundTrips checks metadata written by a
// multi-worker shutdown: valid, current version, exactly one segment per
// table, and stable under a ReadMetadata/WriteMetadata round-trip.
func TestParallelShutdownMetadataRoundTrips(t *testing.T) {
	e := newEnv(t)
	setProcs(t, 4)
	l := startLeaf(t, e.config(0))
	names := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	for i, n := range names {
		ingest(t, l, n, 60+i, int64(100*i))
	}
	if _, err := l.Shutdown(); err != nil {
		t.Fatal(err)
	}
	m := shm.NewManager(0, shm.Options{Dir: e.shmDir, Namespace: "test"})
	md, err := m.ReadMetadata()
	if err != nil {
		t.Fatal(err)
	}
	if !md.Valid || md.Version != shm.LayoutVersion {
		t.Fatalf("metadata = %+v", md)
	}
	// Workers register segments in completion order, so compare as a set.
	if len(md.Segments) != len(names) {
		t.Fatalf("segments = %+v", md.Segments)
	}
	seen := make(map[string]string)
	for _, s := range md.Segments {
		seen[s.Table] = s.Segment
	}
	for _, n := range names {
		// Copy-out names segments tbl-<name>.g<generation> so a new backup
		// never truncates a file a previous generation's view still maps.
		if !strings.HasPrefix(seen[n], shm.SegmentNameForTable(n)+".g") {
			t.Errorf("table %q mapped to segment %q", n, seen[n])
		}
	}
	if err := m.WriteMetadata(md); err != nil {
		t.Fatal(err)
	}
	again, err := m.ReadMetadata()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, md) {
		t.Fatalf("round-trip changed metadata:\ngot  %+v\nwant %+v", again, md)
	}
}

// taken lists a report's tables in the order the pool began them.
func taken(perTable obs.Trace) []string {
	byStart := append(obs.Trace(nil), perTable...)
	sort.Slice(byStart, func(i, j int) bool { return byStart[i].Start.Before(byStart[j].Start) })
	names := make([]string, len(byStart))
	for i, sp := range byStart {
		names[i] = sp.Table
	}
	return names
}

// TestPoolsTakeLargestTableFirst: a pool fed alphabetically ends with one
// worker on the largest table while the others idle, so every pool goes by
// size — heap bytes on the way out, segment bytes on the way in, image and log
// bytes after a crash — and the reports stay sorted by name.
func TestPoolsTakeLargestTableFirst(t *testing.T) {
	e := newEnv(t)
	cfg := e.config(0)
	setProcs(t, 1) // one worker: the order tables are taken in is the order they are fed in
	old := startLeaf(t, cfg)
	rng := rand.New(rand.NewSource(9)) // rows that do not compress to nothing
	for name, rows := range map[string]int{"a-small": 300, "b-large": 6000, "c-medium": 2000} {
		if err := old.AddRows(name, driftRows(rng, rows, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := old.SealAll(); err != nil { // Table.Bytes counts sealed blocks
		t.Fatal(err)
	}
	info, err := old.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	rec := startLeaf(t, cfg).Recovery()
	crashed := startLeaf(t, cfg).Recovery() // the backup is consumed: the store alone
	if rec.Path != RecoveryMemory || crashed.Path != RecoveryDisk {
		t.Fatalf("recovered by %s then %s, want memory then disk", rec.Path, crashed.Path)
	}
	want := []string{"b-large", "c-medium", "a-small"}
	for what, got := range map[string][]string{"copied out": taken(info.PerTable), "copied in": taken(rec.PerTable), "loaded": taken(crashed.PerTable)} {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s %v, want %v", what, got, want)
		}
	}
	for i, name := range []string{"a-small", "b-large", "c-medium"} {
		if info.PerTable[i].Table != name || rec.PerTable[i].Table != name || rec.PerTablePath[i].Table != name {
			t.Errorf("reports not sorted by name: shutdown %v, start %v / %v", info.PerTable[i].Table, rec.PerTable[i].Table, rec.PerTablePath[i].Table)
		}
	}
}
