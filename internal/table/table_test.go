package table

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"scuba/internal/rowblock"
)

func mkRows(n int, startTime int64) []rowblock.Row {
	rows := make([]rowblock.Row, n)
	for i := range rows {
		rows[i] = rowblock.Row{
			Time: startTime + int64(i),
			Cols: map[string]rowblock.Value{
				"service": rowblock.StringValue(fmt.Sprintf("svc-%d", i%3)),
				"count":   rowblock.Int64Value(int64(i)),
			},
		}
	}
	return rows
}

func TestAddAndSeal(t *testing.T) {
	tbl := New("events", Options{})
	if err := tbl.AddRows(mkRows(100, 1000), 999); err != nil {
		t.Fatal(err)
	}
	st := tbl.Stats()
	if st.Unsealed != 100 || st.NumBlocks != 0 {
		t.Errorf("stats = %+v", st)
	}
	if err := tbl.SealActive(); err != nil {
		t.Fatal(err)
	}
	st = tbl.Stats()
	if st.NumBlocks != 1 || st.Rows != 100 || st.Unsealed != 0 {
		t.Errorf("stats after seal = %+v", st)
	}
	if st.Bytes != tbl.Bytes() || tbl.Rows() != 100 {
		t.Errorf("accessor mismatch: %+v", st)
	}
}

func TestAutoSealAtCapacity(t *testing.T) {
	tbl := New("events", Options{})
	if err := tbl.AddRows(mkRows(rowblock.MaxRows+10, 0), 1); err != nil {
		t.Fatal(err)
	}
	st := tbl.Stats()
	if st.NumBlocks != 1 {
		t.Errorf("NumBlocks = %d, want 1 sealed at 65536", st.NumBlocks)
	}
	if st.Unsealed != 10 {
		t.Errorf("Unsealed = %d, want 10", st.Unsealed)
	}
	if st.Rows != rowblock.MaxRows {
		t.Errorf("sealed rows = %d", st.Rows)
	}
}

func TestScanPrunesByTime(t *testing.T) {
	tbl := New("events", Options{})
	// Three blocks covering [0,99], [100,199], [200,299].
	for b := 0; b < 3; b++ {
		if err := tbl.AddRows(mkRows(100, int64(b*100)), 1); err != nil {
			t.Fatal(err)
		}
		if err := tbl.SealActive(); err != nil {
			t.Fatal(err)
		}
	}
	visited := 0
	err := tbl.ScanView(100, 199, func(v View) error {
		visited = len(v.Blocks)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if visited != 1 {
		t.Errorf("visited %d blocks, want 1", visited)
	}
	visited = 0
	if err := tbl.ScanView(0, 300, func(v View) error { visited = len(v.Blocks); return nil }); err != nil {
		t.Fatal(err)
	}
	if visited != 3 {
		t.Errorf("visited %d blocks, want 3", visited)
	}
}

func TestScanPropagatesError(t *testing.T) {
	tbl := New("events", Options{})
	if err := tbl.AddRows(mkRows(10, 0), 1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SealActive(); err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("boom")
	if err := tbl.ScanView(0, 100, func(View) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Errorf("err = %v", err)
	}
}

func TestExpireByAge(t *testing.T) {
	tbl := New("events", Options{MaxAgeSeconds: 50})
	for b := 0; b < 3; b++ {
		if err := tbl.AddRows(mkRows(10, int64(b*100)), 1); err != nil {
			t.Fatal(err)
		}
		if err := tbl.SealActive(); err != nil {
			t.Fatal(err)
		}
	}
	// now=300: block 0 has MaxTime 9 (<250), block 1 MaxTime 109 (<250),
	// block 2 MaxTime 209 (<250) — all expired.
	dropped, err := tbl.Expire(300)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 3 {
		t.Errorf("dropped = %d", dropped)
	}
	// now=160: nothing left to drop.
	dropped, err = tbl.Expire(160)
	if err != nil || dropped != 0 {
		t.Errorf("second expire: %d, %v", dropped, err)
	}
}

func TestExpireByBytes(t *testing.T) {
	tbl := New("events", Options{MaxBytes: 1}) // everything over budget
	for b := 0; b < 2; b++ {
		if err := tbl.AddRows(mkRows(10, int64(b*100)), 1); err != nil {
			t.Fatal(err)
		}
		if err := tbl.SealActive(); err != nil {
			t.Fatal(err)
		}
	}
	dropped, err := tbl.Expire(0)
	if err != nil {
		t.Fatal(err)
	}
	// Trims oldest-first until at or under budget; with MaxBytes=1 both of
	// the two blocks cannot fit, but trimming stops when bytesTotal <= 1,
	// which requires dropping both.
	if dropped != 2 {
		t.Errorf("dropped = %d", dropped)
	}
	if tbl.Bytes() != 0 {
		t.Errorf("bytes = %d", tbl.Bytes())
	}
}

func TestExpireUpdatesSyncWatermark(t *testing.T) {
	tbl := New("events", Options{MaxAgeSeconds: 10})
	for b := 0; b < 2; b++ {
		if err := tbl.AddRows(mkRows(10, int64(b*1000)), 1); err != nil {
			t.Fatal(err)
		}
		if err := tbl.SealActive(); err != nil {
			t.Fatal(err)
		}
	}
	unpersisted := func() int {
		blocks, _ := tbl.UnpersistedBlocks()
		return len(blocks)
	}
	if got := unpersisted(); got != 2 {
		t.Fatalf("unpersisted = %d", got)
	}
	tbl.MarkPersistedThrough(20)
	if got := unpersisted(); got != 0 {
		t.Fatalf("unpersisted after mark = %d", got)
	}
	// Expire the first block; the remaining block still counts as persisted
	// and the table's first retained row moves past the dropped one.
	if _, err := tbl.Expire(1005); err != nil {
		t.Fatal(err)
	}
	if got := unpersisted(); got != 0 {
		t.Errorf("unpersisted after expire = %d", got)
	}
	if got := tbl.FirstRow(); got != 10 {
		t.Errorf("first retained row = %d, want 10", got)
	}
}

func TestPrepareGatesRequests(t *testing.T) {
	tbl := New("events", Options{})
	if err := tbl.AddRows(mkRows(10, 0), 1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Prepare(); err != nil {
		t.Fatal(err)
	}
	if tbl.State() != StatePrepare {
		t.Fatalf("state = %v", tbl.State())
	}
	// Pending rows were sealed by Prepare (flush sees everything).
	if st := tbl.Stats(); st.Unsealed != 0 || st.NumBlocks != 1 {
		t.Errorf("stats after prepare = %+v", st)
	}
	// New requests are rejected.
	if err := tbl.AddRows(mkRows(1, 0), 1); !errors.Is(err, ErrNotAccepting) {
		t.Errorf("add err = %v", err)
	}
	if err := tbl.ScanView(0, 10, func(View) error { return nil }); !errors.Is(err, ErrNotAccepting) {
		t.Errorf("scan err = %v", err)
	}
	if _, err := tbl.Expire(100); !errors.Is(err, ErrNotAccepting) {
		t.Errorf("expire err = %v", err)
	}
}

func TestPrepareWaitsForInflightQueries(t *testing.T) {
	tbl := New("events", Options{})
	if err := tbl.AddRows(mkRows(10, 0), 1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SealActive(); err != nil {
		t.Fatal(err)
	}

	queryEntered := make(chan struct{})
	releaseQuery := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tbl.ScanView(0, 100, func(View) error { //nolint:errcheck
			close(queryEntered)
			<-releaseQuery
			return nil
		})
	}()
	<-queryEntered

	prepared := make(chan struct{})
	go func() {
		tbl.Prepare() //nolint:errcheck
		close(prepared)
	}()
	select {
	case <-prepared:
		t.Fatal("Prepare returned while a query was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(releaseQuery)
	wg.Wait()
	select {
	case <-prepared:
	case <-time.After(2 * time.Second):
		t.Fatal("Prepare did not complete after query finished")
	}
}

func TestShutdownKillsDeletes(t *testing.T) {
	// A long-running expire must observe the kill flag and abort.
	tbl := New("events", Options{MaxAgeSeconds: 1})
	for b := 0; b < 50; b++ {
		if err := tbl.AddRows(mkRows(2, int64(b)), 1); err != nil {
			t.Fatal(err)
		}
		if err := tbl.SealActive(); err != nil {
			t.Fatal(err)
		}
	}
	// Start expire and prepare concurrently; expire either finishes first
	// or gets killed — both are legal, but after Prepare returns no delete
	// may still be running, and state must be PREPARE.
	var expErr error
	done := make(chan struct{})
	go func() {
		_, expErr = tbl.Expire(1 << 40)
		close(done)
	}()
	if err := tbl.Prepare(); err != nil {
		t.Fatal(err)
	}
	<-done
	if expErr != nil && !errors.Is(expErr, ErrDeletesKilled) && !errors.Is(expErr, ErrNotAccepting) {
		t.Errorf("expire err = %v", expErr)
	}
	if tbl.State() != StatePrepare {
		t.Errorf("state = %v", tbl.State())
	}
}

func TestRestoreBlockStates(t *testing.T) {
	tbl := NewRecovering("events", Options{})
	if err := tbl.Transition(StateMemoryRecovery); err != nil {
		t.Fatal(err)
	}
	src := New("tmp", Options{})
	if err := src.AddRows(mkRows(10, 0), 1); err != nil {
		t.Fatal(err)
	}
	if err := src.SealActive(); err != nil {
		t.Fatal(err)
	}
	rb := src.Blocks()[0]
	// An expired prefix leaves the first block past row 0.
	if err := tbl.RestoreBlock(rb, 40); err != nil {
		t.Fatal(err)
	}
	if err := tbl.RestoreBlock(rb, 45); err == nil {
		t.Error("block overlapping restored rows accepted")
	}
	if tbl.FirstRow() != 40 || tbl.NextRow() != 50 {
		t.Errorf("rows [%d, %d), want [40, 50)", tbl.FirstRow(), tbl.NextRow())
	}
	if err := tbl.Transition(StateAlive); err != nil {
		t.Fatal(err)
	}
	// Whether a restored block is already in an image is the caller's to say.
	if blocks, starts := tbl.UnpersistedBlocks(); len(blocks) != 1 || starts[0] != 40 {
		t.Errorf("unpersisted = %d blocks at %v", len(blocks), starts)
	}
	tbl.MarkPersistedThrough(50)
	if blocks, _ := tbl.UnpersistedBlocks(); len(blocks) != 0 {
		t.Errorf("unpersisted after mark = %d", len(blocks))
	}
	// RestoreBlock after ALIVE is illegal.
	if err := tbl.RestoreBlock(rb, 50); !errors.Is(err, ErrNotAccepting) {
		t.Errorf("err = %v", err)
	}
}

func TestDropBlocksForShutdown(t *testing.T) {
	tbl := New("events", Options{})
	for b := 0; b < 3; b++ {
		if err := tbl.AddRows(mkRows(5, int64(b*10)), 1); err != nil {
			t.Fatal(err)
		}
		if err := tbl.SealActive(); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := tbl.DropBlocksForShutdown(1); !errors.Is(err, ErrNotAccepting) {
		t.Errorf("drop in ALIVE: %v", err)
	}
	if err := tbl.Prepare(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Transition(StateCopyToShm); err != nil {
		t.Fatal(err)
	}
	got, starts, err := tbl.DropBlocksForShutdown(2)
	if err != nil || len(got) != 2 || !slices.Equal(starts, []int64{0, 5}) {
		t.Fatalf("drop: %d at %v, %v", len(got), starts, err)
	}
	got, starts, err = tbl.DropBlocksForShutdown(5)
	if err != nil || len(got) != 1 || !slices.Equal(starts, []int64{10}) {
		t.Fatalf("drain: %d at %v, %v", len(got), starts, err)
	}
}

func TestAddDuringDiskRecovery(t *testing.T) {
	// §4.1: the server accepts new data as soon as disk recovery starts.
	tbl := NewRecovering("events", Options{})
	if err := tbl.Transition(StateDiskRecovery); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AddRows(mkRows(5, 0), 1); err != nil {
		t.Errorf("add during disk recovery: %v", err)
	}
	if err := tbl.ScanView(0, 10, func(View) error { return nil }); err != nil {
		t.Errorf("scan during disk recovery: %v", err)
	}
}

func TestAddDuringMemoryRecoveryRejected(t *testing.T) {
	// §4.3: during memory recovery no add or query requests are accepted.
	tbl := NewRecovering("events", Options{})
	if err := tbl.Transition(StateMemoryRecovery); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AddRows(mkRows(1, 0), 1); !errors.Is(err, ErrNotAccepting) {
		t.Errorf("add err = %v", err)
	}
	if err := tbl.ScanView(0, 10, func(View) error { return nil }); !errors.Is(err, ErrNotAccepting) {
		t.Errorf("scan err = %v", err)
	}
}

func TestConcurrentAddsAndScans(t *testing.T) {
	tbl := New("events", Options{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := tbl.AddRows(mkRows(20, int64(w*1000+i)), 1); err != nil {
					t.Errorf("add: %v", err)
					return
				}
			}
		}(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tbl.ScanView(0, 1<<40, func(View) error { return nil }) //nolint:errcheck
			}
		}()
	}
	wg.Wait()
	if err := tbl.SealActive(); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Rows(); got != 8*50*20 {
		t.Errorf("rows = %d, want %d", got, 8*50*20)
	}
}

func TestDropBlocksForShutdownKeepsPersistedCursor(t *testing.T) {
	// A failed shutdown flushes whatever is left to disk best-effort; the
	// blocks still in the vector after a partial drain were persisted before
	// the copy began and must not look dirty again.
	tbl := New("events", Options{})
	for b := 0; b < 4; b++ {
		if err := tbl.AddRows(mkRows(50, int64(b*100)), 1); err != nil {
			t.Fatal(err)
		}
		if err := tbl.SealActive(); err != nil {
			t.Fatal(err)
		}
	}
	tbl.MarkPersistedThrough(200) // all persisted, as after the pre-copy flush
	if err := tbl.Transition(StatePrepare); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Transition(StateCopyToShm); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tbl.DropBlocksForShutdown(3); err != nil {
		t.Fatal(err)
	}
	if got, _ := tbl.UnpersistedBlocks(); len(got) != 0 {
		t.Errorf("unpersisted after drain = %d blocks", len(got))
	}
}

func TestConcurrentDropBlocksForShutdown(t *testing.T) {
	// Concurrent callers on one table must partition the block vector: every
	// block claimed exactly once, no duplicates, no losses.
	tbl := New("events", Options{})
	const nBlocks = 40
	for b := 0; b < nBlocks; b++ {
		if err := tbl.AddRows(mkRows(10, int64(b*1000)), 1); err != nil {
			t.Fatal(err)
		}
		if err := tbl.SealActive(); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Transition(StatePrepare); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Transition(StateCopyToShm); err != nil {
		t.Fatal(err)
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		claimed []*rowblock.RowBlock
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				blocks, _, err := tbl.DropBlocksForShutdown(1)
				if err != nil {
					t.Errorf("drop: %v", err)
					return
				}
				if len(blocks) == 0 {
					return
				}
				mu.Lock()
				claimed = append(claimed, blocks[0])
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(claimed) != nBlocks {
		t.Fatalf("claimed %d blocks, want %d", len(claimed), nBlocks)
	}
	seen := make(map[*rowblock.RowBlock]bool, nBlocks)
	for _, rb := range claimed {
		if seen[rb] {
			t.Fatal("block claimed twice")
		}
		seen[rb] = true
	}
	if tbl.Stats().NumBlocks != 0 {
		t.Errorf("blocks left = %d", tbl.Stats().NumBlocks)
	}
}

func TestConcurrentRestoreBlockAcrossTables(t *testing.T) {
	// The parallel restore runs one worker per table; RestoreBlock on
	// distinct tables (and even interleaved on one) must stay consistent.
	const nTables = 8
	const nBlocks = 12
	tables := make([]*Table, nTables)
	for i := range tables {
		tables[i] = NewRecovering(fmt.Sprintf("t%d", i), Options{})
		if err := tables[i].Transition(StateMemoryRecovery); err != nil {
			t.Fatal(err)
		}
	}
	src := New("src", Options{})
	if err := src.AddRows(mkRows(100, 0), 1); err != nil {
		t.Fatal(err)
	}
	if err := src.SealActive(); err != nil {
		t.Fatal(err)
	}
	block := src.Blocks()[0]

	var wg sync.WaitGroup
	for _, tbl := range tables {
		wg.Add(1)
		go func(tbl *Table) {
			defer wg.Done()
			for b := 0; b < nBlocks; b++ {
				if err := tbl.RestoreBlock(block, int64(b*100)); err != nil {
					t.Errorf("restore: %v", err)
					return
				}
			}
		}(tbl)
	}
	wg.Wait()
	for _, tbl := range tables {
		st := tbl.Stats()
		if st.NumBlocks != nBlocks || st.Rows != int64(nBlocks*100) {
			t.Errorf("%s: %+v", tbl.Name(), st)
		}
	}
}

func TestPersistedCursorSurvivesExpiry(t *testing.T) {
	tbl := New("events", Options{MaxAgeSeconds: 500})
	// Two sealed blocks: [0,100) at times ~100..199, [100,200) at ~1000..1099.
	if err := tbl.AddRows(mkRows(100, 100), 1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SealActive(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AddRows(mkRows(100, 1000), 1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SealActive(); err != nil {
		t.Fatal(err)
	}
	blocks, starts := tbl.UnpersistedBlocks()
	if len(blocks) != 2 {
		t.Fatalf("unpersisted = %d blocks, want 2", len(blocks))
	}
	// Retention drops the first block between the persist pass listing it
	// and marking it imaged (cutoff 1400-500=900 catches only block 0).
	if dropped, err := tbl.Expire(1400); err != nil || dropped != 1 {
		t.Fatalf("expire dropped %d (%v), want 1", dropped, err)
	}
	tbl.MarkPersistedThrough(starts[0] + int64(blocks[0].Rows()))
	// Coverage is tracked by global row index, so the expiry cannot shift it
	// onto the never-imaged second block.
	after, afterStarts := tbl.UnpersistedBlocks()
	if len(after) != 1 || afterStarts[0] != starts[1] {
		t.Fatalf("unpersisted after expiry = %d blocks at %v, want the never-imaged block at %d",
			len(after), afterStarts, starts[1])
	}
}
