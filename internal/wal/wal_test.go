package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scuba/internal/fault"
	"scuba/internal/layout"
	"scuba/internal/metrics"
	"scuba/internal/rowblock"
)

func testRows(start, n int) []rowblock.Row {
	rows := make([]rowblock.Row, n)
	for i := 0; i < n; i++ {
		rows[i] = rowblock.Row{
			Time: int64(1000 + start + i),
			Cols: map[string]rowblock.Value{
				"seq":     rowblock.Int64Value(int64(start + i)),
				"service": rowblock.StringValue(fmt.Sprintf("svc-%d", (start+i)%3)),
				"ratio":   rowblock.Float64Value(float64(start+i) / 7),
				"tags":    rowblock.SetValue("a", fmt.Sprintf("t%d", (start+i)%5)),
			},
		}
	}
	return rows
}

func testFrame(t testing.TB, rows []rowblock.Row) []byte {
	t.Helper()
	b, err := rowblock.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	return b.AppendFrame(nil)
}

func openTest(t *testing.T, opts Options) *Log {
	t.Helper()
	l, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// appendRows logs rows as one batch frame and waits for durability.
func appendRows(l *Log, table string, rows []rowblock.Row) error {
	b, err := rowblock.FromRows(rows)
	if err != nil {
		return err
	}
	c, err := l.Begin(table, b.AppendFrame(nil), b.Rows())
	if err != nil || c == nil {
		return err
	}
	return c.Wait()
}

// batchRows turns a batch back into rows, every cell present — lossless for
// testRows, whose rows all carry every column.
func batchRows(b *rowblock.Batch) []rowblock.Row {
	rows := make([]rowblock.Row, b.Rows())
	for i := range rows {
		rows[i] = rowblock.Row{Time: b.Times[i], Cols: make(map[string]rowblock.Value, len(b.Cols))}
		for _, c := range b.Cols {
			v := rowblock.Value{Type: c.Type}
			switch c.Type {
			case layout.TypeInt64, layout.TypeTime:
				v.Int = c.Ints[i]
			case layout.TypeFloat64:
				v.Float = c.Floats[i]
			case layout.TypeString:
				v.Str = c.Strs[i]
			case layout.TypeStringSet:
				v.Set = c.Sets[i]
			}
			rows[i].Cols[c.Name] = v
		}
	}
	return rows
}

// decodeNew decodes the record's payload into a new batch.
func decodeNew(rec record) (*rowblock.Batch, error) {
	b := new(rowblock.Batch)
	return b, rec.decode(b)
}

// cloneBatch copies a batch replay handed to fn, which is valid only until fn
// returns: the exported vectors, and of each column only the one its type
// fills, so batches that hold the same cells compare equal however their
// vectors were reused.
func cloneBatch(b *rowblock.Batch) *rowblock.Batch {
	out := &rowblock.Batch{Times: slices.Clone(b.Times), Cols: make([]rowblock.BatchColumn, len(b.Cols))}
	for k, c := range b.Cols {
		cc := rowblock.BatchColumn{Name: c.Name, Type: c.Type}
		switch c.Type {
		case layout.TypeInt64, layout.TypeTime:
			cc.Ints = slices.Clone(c.Ints)
		case layout.TypeFloat64:
			cc.Floats = slices.Clone(c.Floats)
		case layout.TypeString:
			cc.Strs = slices.Clone(c.Strs)
		case layout.TypeStringSet:
			cc.Sets = slices.Clone(c.Sets)
		}
		out.Cols[k] = cc
	}
	return out
}

func collectReplay(t *testing.T, l *Log, table string, from int64) ([]rowblock.Row, int64) {
	t.Helper()
	var got []rowblock.Row
	_, _, next, err := l.ReplayFrom(table, from, nil, func(b *rowblock.Batch) error {
		got = append(got, batchRows(b)...)
		return nil
	})
	if err != nil {
		t.Fatalf("ReplayFrom: %v", err)
	}
	return got, next
}

func TestRecordRoundTrip(t *testing.T) {
	rows := testRows(0, 17)
	raw := appendRecord(nil, 42, len(rows), testFrame(t, rows))
	rec, used, err := decodeRecord(raw)
	if err != nil {
		t.Fatalf("decodeRecord: %v", err)
	}
	if rec.start != 42 || rec.count != 17 || used != len(raw) {
		t.Fatalf("start=%d count=%d used=%d want 42, 17, %d", rec.start, rec.count, used, len(raw))
	}
	b, err := decodeNew(rec)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if !reflect.DeepEqual(rows, batchRows(b)) {
		t.Fatalf("rows differ after round trip")
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	l := openTest(t, Options{})
	for i := 0; i < 5; i++ {
		if err := appendRows(l, "events", testRows(i*10, 10)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	got, next := collectReplay(t, l, "events", 0)
	if want := testRows(0, 50); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay differs: got %d rows", len(got))
	}
	if next != 50 {
		t.Fatalf("next=%d want 50", next)
	}
	// Replay from mid-record slices the straddling batch.
	got, next = collectReplay(t, l, "events", 15)
	if want := testRows(15, 35); !reflect.DeepEqual(got, want) {
		t.Fatalf("mid-record replay differs: got %d rows", len(got))
	}
	if next != 50 {
		t.Fatalf("next=%d want 50", next)
	}
}

// TestGroupCommitConcurrentAppends: concurrent appenders share fsyncs — the
// first waiter leads one for every record written so far, the rest ride it or
// the next — so there are fewer fsyncs than appends, and at least one.
func TestGroupCommitConcurrentAppends(t *testing.T) {
	l := openTest(t, Options{Metrics: metrics.NewRegistry()})
	const writers, appends = 8, 5
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < appends; i++ {
				if err := appendRows(l, "events", testRows(0, 3)); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatalf("concurrent Append: %v", err)
		}
	}
	got, _ := collectReplay(t, l, "events", 0)
	if len(got) != writers*appends*3 {
		t.Fatalf("replayed %d rows, want %d", len(got), writers*appends*3)
	}
	if v := l.opts.Metrics.Counter("wal.append_rows").Value(); v != writers*appends*3 {
		t.Fatalf("wal.append_rows=%d want %d", v, writers*appends*3)
	}
	n := l.opts.Metrics.Counter("wal.fsyncs").Value()
	if n < 1 || n >= writers*appends {
		t.Fatalf("wal.fsyncs=%d for %d appends, want at least 1 and fewer than the appends", n, writers*appends)
	}
	t.Logf("%d fsyncs for %d appends", n, writers*appends)
}

// TestBeginDoesNotWaitForAnFsync: a leader fsyncs with the table's lock
// released, so the next batch's Begin — which runs under the leaf's ingest
// lock, the table apply's too — is not held up by it.
func TestBeginDoesNotWaitForAnFsync(t *testing.T) {
	t.Cleanup(fault.Reset)
	l := openTest(t, Options{})
	if err := appendRows(l, "events", testRows(0, 3)); err != nil {
		t.Fatal(err)
	}
	if err := fault.ArmSpec("wal.sync=delay:200ms"); err != nil {
		t.Fatal(err)
	}
	c, err := l.Begin("events", testFrame(t, testRows(3, 3)), 3)
	if err != nil {
		t.Fatal(err)
	}
	led := make(chan error, 1)
	go func() { led <- c.Wait() }()
	for fault.Hits(fault.SiteWALSync) == 0 { // the leader is inside its fsync
		time.Sleep(time.Millisecond)
	}
	begin := time.Now()
	c2, err := l.Begin("events", testFrame(t, testRows(6, 3)), 3)
	if took := time.Since(begin); took > 50*time.Millisecond {
		t.Errorf("Begin took %v beside a 200 ms fsync, want under 50 ms", took)
	}
	if err != nil {
		t.Fatal(err)
	}
	fault.Reset()
	if err := <-led; err != nil {
		t.Fatal(err)
	}
	if err := c2.Wait(); err != nil {
		t.Fatal(err)
	}
	if got, _ := collectReplay(t, l, "events", 0); !reflect.DeepEqual(got, testRows(0, 9)) {
		t.Fatalf("replayed %d rows, want the 9 appended", len(got))
	}
}

// TestRotationAndCloseWaitOutALeader: rotation and Close close the fd a
// leader may be fsyncing with the lock released, so they wait for it. With
// one-byte segments every append after the first rotates; a rotating Begin,
// then Close, each land inside a leader's delayed fsync, with concurrent
// rotating appenders between them. No fsync may meet a closed fd (that
// would quarantine the table), and every acked row replays.
func TestRotationAndCloseWaitOutALeader(t *testing.T) {
	t.Cleanup(fault.Reset)
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.segmentBytes = 1
	var (
		next  atomic.Int64
		mu    sync.Mutex
		acked []rowblock.Row
	)
	frames := func() ([]rowblock.Row, []byte) {
		rows := testRows(int(next.Add(2)-2), 2) // distinct seq values per batch
		return rows, testFrame(t, rows)
	}
	ack := func(rows []rowblock.Row) {
		mu.Lock()
		acked = append(acked, rows...)
		mu.Unlock()
	}
	errDropped := errors.New("batch dropped: the table's log is quarantined")
	appendOne := func() error {
		rows, frame := frames()
		c, err := l.Begin("events", frame, len(rows))
		if err == nil && c == nil {
			err = errDropped
		}
		if err == nil {
			err = c.Wait()
		}
		if err == nil {
			ack(rows)
		}
		return err
	}
	// leaderInFsync begins a batch and returns once the Wait leading its
	// fsync is inside a 20 ms delay, with the fd it recorded still open.
	leaderInFsync := func() <-chan error {
		rows, frame := frames()
		c, err := l.Begin("events", frame, len(rows)) // may rotate: arm after
		if err == nil && c == nil {
			err = errDropped
		}
		if err != nil {
			t.Fatal(err)
		}
		fault.Reset()
		if err := fault.ArmSpec("wal.sync=delay:20ms;count=1"); err != nil {
			t.Fatal(err)
		}
		led := make(chan error, 1)
		go func() {
			err := c.Wait()
			if err == nil {
				ack(rows)
			}
			led <- err
		}()
		for fault.Hits(fault.SiteWALSync) == 0 {
			time.Sleep(time.Millisecond)
		}
		return led
	}

	if err := appendOne(); err != nil {
		t.Fatal(err)
	}
	led := leaderInFsync()
	if err := appendOne(); err != nil { // rotates: closes the leader's fd
		t.Fatal(err)
	}
	if err := <-led; err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if err := appendOne(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	led = leaderInFsync()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-led; err != nil {
		t.Fatal(err)
	}
	fault.Reset()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Quarantined("events") {
		t.Fatal("a leader's fsync met a closed fd: table quarantined")
	}
	got, _ := collectReplay(t, l2, "events", 0)
	replayed := map[int64]bool{}
	for _, r := range got {
		replayed[r.Cols["seq"].Int] = true
	}
	for _, r := range acked {
		if !replayed[r.Cols["seq"].Int] {
			t.Fatalf("acked row seq=%d did not replay", r.Cols["seq"].Int)
		}
	}
	if len(acked) != 2*44 || len(got) != len(acked) {
		t.Fatalf("%d rows acked, %d replayed, want all 88 of both", len(acked), len(got))
	}
}

func TestTornTailDiscardedWhole(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := appendRows(l, "events", testRows(0, 10)); err != nil {
		t.Fatal(err)
	}
	if err := appendRows(l, "events", testRows(10, 10)); err != nil {
		t.Fatal(err)
	}
	l.Close()

	segs, err := listSegments(filepath.Join(dir, "events"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	path := filepath.Join(dir, "events", segs[0].name)
	data, _ := os.ReadFile(path)
	_, rec1, err := decodeRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	rec2 := len(data) - rec1          // second record's size
	for cut := 1; cut < rec2; cut++ { // every byte of the final record
		if err := os.WriteFile(path, data[:len(data)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, next := collectReplay(t, l2, "events", 0)
		// The torn second batch vanishes whole; the first is intact.
		if want := testRows(0, 10); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d: replayed %d rows, want first batch only", cut, len(got))
		}
		if next != 10 {
			t.Fatalf("cut %d: next=%d want 10", cut, next)
		}
		// New appends continue after the last intact record.
		if err := appendRows(l2, "events", testRows(10, 4)); err != nil {
			t.Fatal(err)
		}
		if got, _ := collectReplay(t, l2, "events", 0); len(got) != 14 {
			t.Fatalf("cut %d: after re-append replayed %d rows, want 14", cut, len(got))
		}
		l2.Close()
		// Restore the original single-segment state for the next cut.
		now, _ := listSegments(filepath.Join(dir, "events"))
		for _, sf := range now {
			if sf.name != segs[0].name {
				os.Remove(filepath.Join(dir, "events", sf.name))
			}
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMidLogCorruptionAborts(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := appendRows(l, "events", testRows(i*10, 10)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, _ := listSegments(filepath.Join(dir, "events"))
	path := filepath.Join(dir, "events", segs[0].name)
	data, _ := os.ReadFile(path)
	data[recordOverhead+5] ^= 0xff // inside the first record's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	_, _, _, err = l2.ReplayFrom("events", 0, nil, func(*rowblock.Batch) error { return nil })
	if err == nil {
		t.Fatal("mid-log corruption not detected")
	}
}

func TestRotationAndTruncate(t *testing.T) {
	l := openTest(t, Options{Metrics: metrics.NewRegistry()})
	l.segmentBytes = 1024
	for i := 0; i < 20; i++ {
		if err := appendRows(l, "events", testRows(i*10, 10)); err != nil {
			t.Fatal(err)
		}
	}
	dir := filepath.Join(l.Dir(), "events")
	segs, _ := listSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("expected rotation, got %d segments", len(segs))
	}
	// Replay across segment boundaries is seamless.
	got, next := collectReplay(t, l, "events", 0)
	if len(got) != 200 || next != 200 {
		t.Fatalf("replayed %d rows next=%d", len(got), next)
	}
	// Truncating at a mid-log watermark removes only fully covered closed
	// segments and replay from that watermark still works.
	w := segs[2].start
	removed, err := l.Truncate("events", w)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Fatalf("removed %d segments, want 2", removed)
	}
	got, _ = collectReplay(t, l, "events", w)
	if want := testRows(int(w), int(200-w)); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-truncate replay differs")
	}
	// The active segment survives even a max watermark.
	if _, err := l.Truncate("events", 1<<40); err != nil {
		t.Fatal(err)
	}
	if segs, _ = listSegments(dir); len(segs) == 0 {
		t.Fatal("active segment deleted")
	}
	// Replay below the truncated tail now reports a gap.
	_, _, _, err = l.ReplayFrom("events", 0, nil, func(*rowblock.Batch) error { return nil })
	if !errors.Is(err, ErrGap) {
		t.Fatalf("want ErrGap, got %v", err)
	}
}

// TestRotateAtTheCursor: Rotate starts the next segment at the log cursor, so
// a watermark there frees every segment before it; an empty active segment
// is not rotated again, and a closed log neither rotates nor truncates.
func TestRotateAtTheCursor(t *testing.T) {
	l := openTest(t, Options{})
	for i := 0; i < 3; i++ {
		if err := appendRows(l, "events", testRows(i*10, 10)); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 2; j++ { // the second finds the new segment empty
			if err := l.Rotate("events"); err != nil {
				t.Fatal(err)
			}
		}
	}
	dir := filepath.Join(l.Dir(), "events")
	segs, _ := listSegments(dir)
	var starts []int64
	for _, sg := range segs {
		starts = append(starts, sg.start)
	}
	if want := []int64{0, 10, 20, 30}; !reflect.DeepEqual(starts, want) {
		t.Fatalf("segments start at %v, want %v", starts, want)
	}
	if removed, err := l.Truncate("events", 30); err != nil || removed != 3 {
		t.Fatalf("Truncate(30) removed %d (%v), want every segment but the active one", removed, err)
	}
	l.Close()
	if err := l.Rotate("events"); !errors.Is(err, ErrClosed) {
		t.Errorf("Rotate after Close = %v, want ErrClosed", err)
	}
	if _, err := l.Truncate("events", 1<<40); !errors.Is(err, ErrClosed) {
		t.Errorf("Truncate after Close = %v, want ErrClosed", err)
	}
	if segs, _ = listSegments(dir); len(segs) != 1 {
		t.Errorf("%d segments after a refused Truncate, want 1", len(segs))
	}
}

func TestQuarantineSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := appendRows(l, "events", testRows(0, 5)); err != nil {
		t.Fatal(err)
	}
	if err := l.Quarantine("events"); err != nil {
		t.Fatal(err)
	}
	// Further appends are dropped silently.
	if err := appendRows(l, "events", testRows(5, 5)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !l2.Quarantined("events") {
		t.Fatal("quarantine marker lost across reopen")
	}
	// ResetTable clears it.
	if err := l2.ResetTable("events", 0); err != nil {
		t.Fatal(err)
	}
	if l2.Quarantined("events") {
		t.Fatal("quarantine survived reset")
	}
}

func TestCursorContinuesAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := appendRows(l, "events", testRows(0, 25)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if c := l2.Cursor("events"); c != 0 {
		t.Fatalf("cursor before first touch = %d", c)
	}
	if err := appendRows(l2, "events", testRows(25, 5)); err != nil {
		t.Fatal(err)
	}
	got, next := collectReplay(t, l2, "events", 0)
	if len(got) != 30 || next != 30 {
		t.Fatalf("replayed %d rows next=%d, append did not continue cursor", len(got), next)
	}
	tables, err := l2.Tables()
	if err != nil || len(tables) != 1 || tables[0] != "events" {
		t.Fatalf("Tables=%v err=%v", tables, err)
	}
	// A reset log still lists its table: the empty directory is a log that
	// covers the table trivially.
	if err := l2.ResetTable("events", 30); err != nil {
		t.Fatal(err)
	}
	if tables, err := l2.Tables(); err != nil || len(tables) != 1 {
		t.Fatalf("Tables after reset=%v err=%v", tables, err)
	}
}

// TestSyncFailureQuarantines: a failed fsync leaves un-synced record bytes
// mid-segment with the cursor already advanced; a later successful fsync
// would make them durable and break the cursor==row-count invariant. The
// log must durably quarantine the table instead, and the batch is still
// acked — WAL coverage is waived, same as appends to an already-quarantined
// table.
func TestSyncFailureQuarantines(t *testing.T) {
	t.Cleanup(fault.Reset)
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := appendRows(l, "events", testRows(0, 5)); err != nil {
		t.Fatal(err)
	}
	if err := fault.ArmSpec("wal.sync=error;count=1"); err != nil {
		t.Fatal(err)
	}
	if err := appendRows(l, "events", testRows(5, 5)); err != nil {
		t.Fatalf("append nacked on sync failure: %v", err)
	}
	fault.Reset()
	if !l.Quarantined("events") {
		t.Fatal("sync failure did not quarantine the table")
	}
	if _, err := os.Stat(filepath.Join(dir, "events", "quarantined")); err != nil {
		t.Fatalf("quarantine marker not persisted: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !l2.Quarantined("events") {
		t.Fatal("quarantine lost across reopen")
	}
}

// TestQuarantineMarkerFailureNacks: if the quarantine marker itself cannot
// be persisted, appends must nack — acking without durable WAL coverage
// AND without a durable marker would silently lose the acked tail after a
// crash (recovery would trust the stale log).
func TestQuarantineMarkerFailureNacks(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := appendRows(l, "events", testRows(0, 5)); err != nil {
		t.Fatal(err)
	}
	// Destroy the table directory so the marker cannot be created.
	if err := os.RemoveAll(filepath.Join(dir, "events")); err != nil {
		t.Fatal(err)
	}
	if err := l.Quarantine("events"); err == nil {
		t.Fatal("Quarantine reported success with the marker unpersisted")
	}
	if err := appendRows(l, "events", testRows(5, 5)); err == nil {
		t.Fatal("append acked after the quarantine marker failed to persist")
	}
}

// FuzzRecordDecode feeds arbitrary bytes to the record parser and, when the
// framing holds, to the payload decoder: garbage is an error, never a panic,
// and a record that decodes survives a re-encode. The WAL1 seeds are records
// of the retired format, which the parser refuses as corrupt.
func FuzzRecordDecode(f *testing.F) {
	f.Add(appendRecord(nil, 0, 3, testFrame(f, testRows(0, 3))))
	f.Add(appendRecord(nil, 1<<40, 0, nil))
	f.Add(wal1Record(f, 7, testRows(0, 3)))
	f.Add([]byte("WAL1garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, used, err := decodeRecord(data)
		if err != nil {
			return
		}
		if used > len(data) || used < recordOverhead {
			t.Fatalf("used=%d len=%d", used, len(data))
		}
		b, err := decodeNew(rec)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("payload error is not ErrCorrupt: %v", err)
			}
			return
		}
		// Whatever decodes must survive a re-encode/decode cycle losslessly
		// (byte-identity is too strong: a forged payload may use non-minimal
		// varints that canonicalize on re-encode).
		re := appendRecord(nil, rec.start, b.Rows(), b.AppendFrame(nil))
		rec2, used2, err := decodeRecord(re)
		if err != nil || rec2.start != rec.start || used2 != len(re) {
			t.Fatalf("re-encoded record fails decode: %v", err)
		}
		b2, err := decodeNew(rec2)
		if err != nil || !reflect.DeepEqual(cloneBatch(b), cloneBatch(b2)) {
			t.Fatalf("batch differs after re-encode cycle: %v", err)
		}
	})
}

// replayWhole is ReplayFrom's loop over one segment read whole into memory,
// as replay read segments before it streamed them: FuzzReplaySegment's
// reference.
func replayWhole(data []byte, from int64, fn func(*rowblock.Batch) error) (int, int64, int64, error) {
	pos, records, rows := from, 0, int64(0)
	for off := 0; off < len(data); {
		rec, used, err := decodeRecord(data[off:])
		if err != nil {
			if errors.Is(err, errTorn) && (used == 0 || off+used >= len(data)) {
				break
			}
			return records, rows, pos, ErrCorrupt
		}
		off += used
		end := rec.start + int64(rec.count)
		if end <= pos {
			continue
		}
		if rec.start > pos {
			return records, rows, pos, ErrGap
		}
		b, err := decodeNew(rec)
		if err != nil {
			return records, rows, pos, err
		}
		if rec.start < pos {
			b = b.Slice(int(pos-rec.start), b.Rows())
		}
		if err := fn(b); err != nil {
			return records, rows, pos, err
		}
		pos = end
		records++
		rows += int64(b.Rows())
	}
	return records, rows, pos, nil
}

// errClass names the kind of a replay error, which is what streaming must
// keep; the messages carry offsets and file names.
func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, ErrGap):
		return "gap"
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	}
	return "other: " + err.Error()
}

// FuzzReplaySegment gives arbitrary segment bytes to ReplayFrom, which
// streams the segment record by record, and to replayWhole, which decodes it
// from one buffer: both must apply the same batches and return the same
// counts, next row index and error class, and wal.replay_rows must count
// every applied row however the replay ends.
func FuzzReplaySegment(f *testing.F) {
	var seg []byte
	for i := 0; i < 3; i++ {
		seg = appendRecord(seg, int64(i*10), 10, testFrame(f, testRows(i*10, 10)))
	}
	rec1 := len(appendRecord(nil, 0, 10, testFrame(f, testRows(0, 10))))
	f.Add(seg, uint16(0))
	f.Add(seg, uint16(15))
	f.Add(seg[:len(seg)-7], uint16(0))            // torn final record
	f.Add(seg[:rec1+recordOverhead/2], uint16(0)) // torn inside a header
	flipped := slices.Clone(seg)
	flipped[rec1+recordOverhead+3] ^= 0x40 // the second record's payload
	f.Add(flipped, uint16(0))
	past := slices.Clone(seg)
	binary.LittleEndian.PutUint32(past[len(past)-rec1+16:], 1<<30) // a length past EOF
	f.Add(past, uint16(0))
	big := appendRecord(slices.Clone(seg), 30, 300, testFrame(f, testRows(30, 300))) // a large record after small ones
	f.Add(big, uint16(0))
	f.Add(big, uint16(100))
	f.Add(wal1Record(f, 0, testRows(0, 3)), uint16(1))
	f.Add(seg, uint16(40))                                                    // past the log's end: nothing to apply
	f.Add(appendRecord(nil, 5, 10, testFrame(f, testRows(0, 10))), uint16(0)) // a gap
	// More records than the ring, over a schema whose string and set columns
	// come and go; from the start, from inside the third record, and with a
	// record of the retired WAL1 format among them: corruption mid-log.
	drift := driftingSegment(f, -1)
	f.Add(drift, uint16(0))
	f.Add(drift, uint16(12))
	f.Add(driftingSegment(f, 5), uint16(3))
	// One directory per fuzzing process, which runs one input at a time.
	dir := f.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "events"), 0o755); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, seg []byte, from uint16) {
		if err := os.WriteFile(filepath.Join(dir, "events", "wal-00000001-0.log"), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		reg := metrics.NewRegistry()
		l, err := Open(dir, Options{Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		var got, want []*rowblock.Batch
		reserved := -1
		reserve := func(rows int) {
			if reserved >= 0 || len(got) > 0 {
				t.Fatalf("reserve(%d) after reserve(%d) or after %d batches", rows, reserved, len(got))
			}
			reserved = rows
		}
		recs, rows, next, err := l.ReplayFrom("events", int64(from), reserve, func(b *rowblock.Batch) error { got = append(got, cloneBatch(b)); return nil })
		wrecs, wrows, wnext, werr := replayWhole(seg, int64(from), func(b *rowblock.Batch) error { want = append(want, cloneBatch(b)); return nil })
		if errClass(err) != errClass(werr) || recs != wrecs || rows != wrows || next != wnext {
			t.Fatalf("streamed: %d records, %d rows, next %d, %v; whole: %d, %d, %d, %v", recs, rows, next, err, wrecs, wrows, wnext, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("streamed replay applied other batches than the whole-buffer walk")
		}
		if c := reg.Counter("wal.replay_rows").Value(); c != rows {
			t.Fatalf("wal.replay_rows = %d, replay applied %d", c, rows)
		}
		// The heads may lie about what follows them, but never about a
		// record replay applied.
		if int64(reserved) < min(rows, rowblock.MaxRows) || reserved > rowblock.MaxRows {
			t.Fatalf("reserved %d rows for a replay of %d", reserved, rows)
		}
	})
}

// driftingSegment is ten records of five rows whose schema drifts: the
// string column is missing from every third record and the set column from
// every other one. Record wal1, when in range, is framed the retired WAL1
// way.
func driftingSegment(t testing.TB, wal1 int) []byte {
	var seg []byte
	for i := range 10 {
		rows := testRows(i*5, 5)
		for _, r := range rows {
			if i%3 == 1 {
				delete(r.Cols, "service")
			}
			if i%2 == 1 {
				delete(r.Cols, "tags")
			}
		}
		if i == wal1 {
			seg = append(seg, wal1Record(t, int64(i*5), rows)...)
			continue
		}
		seg = appendRecord(seg, int64(i*5), 5, testFrame(t, rows))
	}
	return seg
}

// logOf writes one table's log, a segment per element of segs (each named
// by the start of its first record), and opens it.
func logOf(t *testing.T, segs ...[]byte) (*Log, *metrics.Registry) {
	t.Helper()
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "events"), 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seg := range segs {
		name := fmt.Sprintf("wal-%08d-%d.log", i+1, binary.LittleEndian.Uint64(seg[4:]))
		if err := os.WriteFile(filepath.Join(dir, "events", name), seg, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reg := metrics.NewRegistry()
	l, err := Open(dir, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, reg
}

// TestReplayReservesTheTail: before the first batch, ReplayFrom reserves
// the rows past from that its records' heads announce, across segments,
// skipping a segment wholly below from.
func TestReplayReservesTheTail(t *testing.T) {
	drift := driftingSegment(t, -1)
	var more []byte
	for i := 10; i < 14; i++ {
		more = appendRecord(more, int64(i*5), 5, testFrame(t, testRows(i*5, 5)))
	}
	l, _ := logOf(t, drift, more)
	for _, tc := range []struct{ from, want int64 }{{0, 70}, {12, 58}, {50, 20}, {52, 18}, {70, 0}} {
		reserved := -1
		_, rows, _, err := l.ReplayFrom("events", tc.from, func(n int) { reserved = n }, func(*rowblock.Batch) error {
			if reserved < 0 {
				t.Fatal("a batch before the reservation")
			}
			return nil
		})
		if err != nil || rows != tc.want || int64(reserved) != tc.want {
			t.Errorf("from %d: reserved %d, replayed %d rows (%v), want %d", tc.from, reserved, rows, err, tc.want)
		}
	}
}

// openSegments counts this process's open files under dir.
func openSegments(t *testing.T, dir string) int {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd to count open files by: %v", err)
	}
	n := 0
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, dir) {
			n++
		}
	}
	return n
}

// TestReplayStopsReaderOnFnError: fn fails at record k of a log with more
// records than the reader's ring. ReplayFrom must return fn's error with k
// records applied and wal.replay_rows counting their rows, and must have
// stopped its reader and closed its segment: no goroutine or open file is
// left behind.
func TestReplayStopsReaderOnFnError(t *testing.T) {
	l, reg := logOf(t, driftingSegment(t, -1))
	before := runtime.NumGoroutine()
	const k = 3
	boom := errors.New("apply failed")
	calls := 0
	recs, rows, next, err := l.ReplayFrom("events", 0, nil, func(*rowblock.Batch) error {
		if calls == k {
			return boom
		}
		calls++
		return nil
	})
	if !errors.Is(err, boom) || recs != k || rows != 5*k || next != 5*k {
		t.Fatalf("ReplayFrom = %d records, %d rows, next %d, %v; want %d, %d, %d, %v", recs, rows, next, err, k, 5*k, 5*k, boom)
	}
	if c := reg.Counter("wal.replay_rows").Value(); c != rows {
		t.Fatalf("wal.replay_rows = %d, replay applied %d", c, rows)
	}
	if n := openSegments(t, l.Dir()); n != 0 {
		t.Errorf("%d segment files left open", n)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the replay, %d before: the reader is still running", n, before)
	}
}

// TestReplayBatchValidUntilFnReturns: the reader decodes ahead into a ring
// of reused batches, so the batch fn holds must not be decoded into again
// before fn returns. fn reads its batch, gives the reader time to run ahead,
// and reads it again.
func TestReplayBatchValidUntilFnReturns(t *testing.T) {
	var want [][]rowblock.Row
	var seg []byte
	for i := range 12 {
		rows := testRows(i*5, 5)
		want = append(want, rows)
		seg = appendRecord(seg, int64(i*5), 5, testFrame(t, rows))
	}
	l, _ := logOf(t, seg)
	i := 0
	_, _, _, err := l.ReplayFrom("events", 0, nil, func(b *rowblock.Batch) error {
		first := batchRows(b)
		time.Sleep(2 * time.Millisecond)
		if again := batchRows(b); !reflect.DeepEqual(first, again) || !reflect.DeepEqual(first, want[i]) {
			t.Fatalf("batch %d changed while fn held it", i)
		}
		i++
		return nil
	})
	if err != nil || i != len(want) {
		t.Fatalf("replayed %d of %d batches: %v", i, len(want), err)
	}
}

// wal1Record frames rows the way binaries before the batch frame did: magic
// "WAL1" over back-to-back row payloads. No supported release writes it, so
// a reader takes it for corruption.
func wal1Record(t testing.TB, start int64, rows []rowblock.Row) []byte {
	t.Helper()
	var payload []byte
	for _, r := range rows {
		var err error
		if payload, err = rowblock.AppendRowPayload(payload, r); err != nil {
			t.Fatal(err)
		}
	}
	rec := appendRecord(nil, start, len(rows), payload)
	copy(rec, "WAL1")
	binary.LittleEndian.PutUint32(rec[len(rec)-4:], crc32.Checksum(rec[:len(rec)-4], crcTable))
	return rec
}

// TestWAL1SegmentIsRejected: the checked-in segment was written by the WAL1
// encoder (row payloads back to back, before the batch frame; never
// regenerate it). No supported release writes that format, so its first
// record is corruption: replay applies nothing, from the start or past it,
// and stops with ErrCorrupt, the class a leaf recovers its table from the
// store on.
func TestWAL1SegmentIsRejected(t *testing.T) {
	seg, err := os.ReadFile(filepath.Join("testdata", "wal1-segment.log"))
	if err != nil {
		t.Fatal(err)
	}
	if magic := string(seg[:4]); magic != "WAL1" {
		t.Fatalf("fixture magic %q is not WAL1", magic)
	}
	l, _ := logOf(t, seg)
	for _, from := range []int64{0, 5} {
		applied := 0
		recs, rows, _, err := l.ReplayFrom("events", from, nil, func(*rowblock.Batch) error { applied++; return nil })
		if !errors.Is(err, ErrCorrupt) || recs != 0 || rows != 0 || applied != 0 {
			t.Fatalf("replay from %d: %d records, %d rows, %d batches applied, %v; want ErrCorrupt and nothing applied", from, recs, rows, applied, err)
		}
	}
}

// TestCrashAfterResetNeverReplaysTheSetAsideLog: ResetTable sets the old log
// aside in one rename and the log starts over at the cursor it is given. A
// crash before DropSetAside deletes the old one leaves it beside the root;
// the next Open deletes it, and a replay reads only what was appended after
// the reset.
func TestCrashAfterResetNeverReplaysTheSetAsideLog(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "leaf0")
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := appendRows(l, "events", testRows(0, 30)); err != nil {
		t.Fatal(err)
	}
	if err := l.ResetTable("events", 30); err != nil {
		t.Fatal(err)
	}
	aside, err := os.ReadDir(dir + ".reset")
	if err != nil || len(aside) != 1 {
		t.Fatalf("set-aside logs after the reset: %v, %v", aside, err)
	}
	if err := appendRows(l, "events", testRows(30, 5)); err != nil {
		t.Fatal(err)
	}
	l.Close() // the crash: DropSetAside never ran

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if aside, err := os.ReadDir(dir + ".reset"); err != nil || len(aside) != 0 {
		t.Fatalf("set-aside logs after the reopen: %v, %v", aside, err)
	}
	if tables, err := l2.Tables(); err != nil || len(tables) != 1 || tables[0] != "events" {
		t.Fatalf("Tables = %v, %v", tables, err)
	}
	got, next := collectReplay(t, l2, "events", 30)
	if len(got) != 5 || next != 35 {
		t.Fatalf("replay from the reset cursor: %d rows, next %d; want the 5 appended after the reset", len(got), next)
	}
	// Nothing below the reset cursor is left to replay.
	if _, _, _, err := l2.ReplayFrom("events", 0, nil, func(*rowblock.Batch) error { return nil }); !errors.Is(err, ErrGap) {
		t.Fatalf("replay from 0 = %v, want %v: the rows before the reset are the store's", err, ErrGap)
	}
}

// TestDropSetAsideWaitsUnlessSettled: the deletion DropSetAside starts waits
// for its channel, and Settle runs it at once and waits for it.
func TestDropSetAsideWaitsUnlessSettled(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "leaf0")
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := appendRows(l, "events", testRows(0, 30)); err != nil {
		t.Fatal(err)
	}
	if err := l.ResetTable("events", 30); err != nil {
		t.Fatal(err)
	}
	l.DropSetAside(make(chan struct{})) // never closed
	time.Sleep(10 * time.Millisecond)
	if aside, err := os.ReadDir(dir + ".reset"); err != nil || len(aside) != 1 {
		t.Fatalf("set-aside logs before Settle: %v, %v", aside, err)
	}
	l.Settle()
	if aside, err := os.ReadDir(dir + ".reset"); err != nil || len(aside) != 0 {
		t.Fatalf("set-aside logs after Settle: %v, %v", aside, err)
	}
}
