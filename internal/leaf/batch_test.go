package leaf

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"scuba/internal/query"
	"scuba/internal/rowblock"
)

// driftRows draws n rows over a drifting schema: cells go missing, a column
// shows up late, and every value type (string sets included) is in play.
func driftRows(rng *rand.Rand, n int, at int64) []rowblock.Row {
	rows := make([]rowblock.Row, n)
	for i := range rows {
		cols := map[string]rowblock.Value{"seq": rowblock.Int64Value(at + int64(i))}
		if rng.Intn(5) > 0 {
			cols["service"] = rowblock.StringValue(fmt.Sprintf("svc-%d", rng.Intn(6)))
		}
		if rng.Intn(3) > 0 {
			cols["ratio"] = rowblock.Float64Value(float64(rng.Intn(64)) / 8)
		}
		if rng.Intn(4) == 0 {
			cols["tags"] = rowblock.SetValue("prod", fmt.Sprintf("tier%d", rng.Intn(3)))
		}
		if at+int64(i) > 70000 && rng.Intn(2) == 0 {
			cols["late"] = rowblock.StringValue("seen")
		}
		rows[i] = rowblock.Row{Time: 1700000000 + (at+int64(i))/50, Cols: cols}
	}
	return rows
}

// sealedImages seals the events table and returns its blocks' RBK2 images.
func sealedImages(t *testing.T, l *Leaf) [][]byte {
	t.Helper()
	if err := l.SealAll(); err != nil {
		t.Fatal(err)
	}
	return tableImages(t, l)["events"]
}

func sameImages(t *testing.T, what string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d blocks, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: block %d image differs (%d vs %d bytes)", what, i, len(got[i]), len(want[i]))
		}
	}
}

// TestAddRowsAddBatchEquivalence: rows handed to AddRows and the same rows
// sent as encoded frames to AddBatch are one ingest path, so they must leave
// byte-identical sealed blocks and identical stats — across batches that
// straddle one and two block boundaries — and a crash that replays a record
// straddling the snapshot watermark must rebuild those same blocks.
func TestAddRowsAddBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// 40000+40000 straddles the first 65536-row boundary, 140000 the next two.
	var batches [][]rowblock.Row
	at := int64(0)
	for _, n := range []int{40000, 40000, 1, 140000, 999, 7} {
		batches = append(batches, driftRows(rng, n, at))
		at += int64(n)
	}

	clock := func() int64 { return 1700009999 } // block images carry the creation time
	ea, eb := newWALEnv(t), newWALEnv(t)
	ca, cb := ea.config(0), eb.config(0)
	ca.Clock, cb.Clock = clock, clock
	byRows, byFrames := startLeaf(t, ca), startLeaf(t, cb)
	for i, rows := range batches {
		if err := byRows.AddRows("events", rows); err != nil {
			t.Fatal(err)
		}
		b, err := rowblock.FromRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := byFrames.AddBatch("events", b.AppendFrame(nil)); err != nil || n != len(rows) {
			t.Fatalf("AddBatch = %d, %v", n, err)
		}
		if i == 1 {
			// Rows [0,65536) sealed in this batch and went to the store
			// behind it: the watermark lands inside the second record (rows
			// 40000..79999) of the log.
			storeTiles(t, byRows, "events")
		}
		if sa, sb := byRows.Stats(), byFrames.Stats(); sa.Bytes != sb.Bytes || sa.Rows != sb.Rows || sa.Blocks != sb.Blocks {
			t.Fatalf("after batch %d: stats %+v vs %+v", i, sa, sb)
		}
	}

	// Crash byRows once the persists behind its seals have ended, with no
	// sync since: recovery loads blocks 0-2 from their images and replays
	// from row 196608, in the middle of the 140000-row record.
	sealedTiles(t, byRows, "events")
	recovered := startLeaf(t, ca)
	if info := recovered.Recovery(); info.Path != RecoveryWAL || info.SnapshotBlocks != 3 || info.WALRowsReplayed != at-3*65536 {
		t.Fatalf("recovery = %+v", info)
	}
	want := sealedImages(t, byFrames)
	if len(want) != 4 {
		t.Fatalf("%d blocks, want 4", len(want))
	}
	sameImages(t, "AddRows vs AddBatch", sealedImages(t, byRows), want)
	sameImages(t, "replay vs live", sealedImages(t, recovered), want)
	if a, b := recovered.Stats().Bytes, byFrames.Stats().Bytes; a != b {
		t.Fatalf("Stats().Bytes after replay = %d, live %d", a, b)
	}
}

// TestBatchTypeConflicts: a batch whose own rows disagree on a column's type
// is rejected whole before anything is logged or applied; a batch that only
// conflicts with what the table already holds was logged first, so it still
// quarantines the table's log.
func TestBatchTypeConflicts(t *testing.T) {
	e := newWALEnv(t)
	l := startLeaf(t, e.config(0))
	ingest(t, l, "events", 10, 1000)
	cursor := l.WAL().Cursor("events")

	self := []rowblock.Row{
		{Time: 1, Cols: map[string]rowblock.Value{"fresh": rowblock.Int64Value(1)}},
		{Time: 2, Cols: map[string]rowblock.Value{"fresh": rowblock.StringValue("x")}},
	}
	if err := l.AddRows("events", self); !errors.Is(err, rowblock.ErrTypeConflict) {
		t.Fatalf("self-conflicting batch: %v, want ErrTypeConflict", err)
	}
	if l.WAL().Quarantined("events") || l.WAL().Cursor("events") != cursor || countRows(t, l, "events") != 10 {
		t.Fatalf("self-conflicting batch left a trace: quarantined=%v cursor=%d rows=%v",
			l.WAL().Quarantined("events"), l.WAL().Cursor("events"), countRows(t, l, "events"))
	}

	held, err := rowblock.FromRows([]rowblock.Row{
		{Time: 3, Cols: map[string]rowblock.Value{"latency": rowblock.StringValue("oops")}},
		{Time: 4, Cols: map[string]rowblock.Value{"other": rowblock.Int64Value(1)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AddBatch("events", held.AppendFrame(nil)); !errors.Is(err, rowblock.ErrTypeConflict) {
		t.Fatalf("table-conflicting batch: %v, want ErrTypeConflict", err)
	}
	if countRows(t, l, "events") != 10 {
		t.Fatalf("rejected batch was partly applied: %v rows", countRows(t, l, "events"))
	}
	if !l.WAL().Quarantined("events") {
		t.Fatal("a logged-then-rejected batch must quarantine the table's log")
	}

	if _, err := l.AddBatch("events", []byte("not a frame")); !errors.Is(err, rowblock.ErrBatchCorrupt) {
		t.Fatalf("garbage frame: %v, want ErrBatchCorrupt", err)
	}
}

// TestQueryNeverUndercountsAcrossSeals: a count query racing ingest must see
// every row acked before it began. The sealed-block list and the unsealed
// tail used to be read in two critical sections, so a block sealing between
// them was in neither and its 65536 rows vanished from that one answer.
func TestQueryNeverUndercountsAcrossSeals(t *testing.T) {
	l := startLeaf(t, newEnv(t).config(0))
	const batch, total = 8192, 12 * 65536 // a seal every 8 batches
	rows := make([]rowblock.Row, batch)
	for i := range rows {
		rows[i] = rowblock.Row{Time: 1000, Cols: map[string]rowblock.Value{"n": rowblock.Int64Value(int64(i))}}
	}
	var acked atomic.Int64
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for acked.Load() < total {
			if err := l.AddRows("events", rows); err != nil {
				t.Error(err)
				return
			}
			acked.Add(batch)
		}
	}()
	q := &query.Query{Table: "events", From: 0, To: 1 << 40,
		Aggregations: []query.Aggregation{{Op: query.AggCount}}}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		floor := acked.Load()
		res, err := l.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		var got int64
		if out := res.Rows(q); len(out) > 0 {
			got = int64(out[0].Values[0])
		}
		if got < floor {
			t.Fatalf("count = %d with %d rows acked before the query began", got, floor)
		}
	}
	wg.Wait()
}
