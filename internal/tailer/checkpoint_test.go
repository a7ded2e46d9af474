package tailer

import (
	"os"
	"path/filepath"
	"testing"

	"scuba/internal/query"
	"scuba/internal/rowblock"
	"scuba/internal/scribe"
)

func TestCheckpointRoundTrip(t *testing.T) {
	cp := NewCheckpoint(filepath.Join(t.TempDir(), "tailer.ckpt"))
	if cp.Load() != 0 {
		t.Error("missing checkpoint should load as 0")
	}
	if err := cp.Save(12345); err != nil {
		t.Fatal(err)
	}
	if got := cp.Load(); got != 12345 {
		t.Errorf("Load = %d", got)
	}
}

func TestCheckpointCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tailer.ckpt")
	cp := NewCheckpoint(path)
	if err := cp.Save(777); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		bad := append([]byte(nil), raw...)
		bad[i] ^= 0x01
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if got := cp.Load(); got != 0 {
			t.Fatalf("corrupt checkpoint (flip %d) loaded as %d", i, got)
		}
	}
	// Truncated file too.
	if err := os.WriteFile(path, raw[:5], 0o644); err != nil {
		t.Fatal(err)
	}
	if cp.Load() != 0 {
		t.Error("truncated checkpoint loaded")
	}
}

// TestCheckpointSaveOverTruncatedState replays a crash mid-Save: a stale,
// truncated temp file and a truncated checkpoint are both on disk. Load must
// treat the state as absent and the next Save must repair it atomically.
func TestCheckpointSaveOverTruncatedState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tailer.ckpt")
	cp := NewCheckpoint(path)
	if err := os.WriteFile(path+".tmp", []byte{0x01, 0x02}, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte{0x03}, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := cp.Load(); got != 0 {
		t.Fatalf("truncated checkpoint loaded as %d", got)
	}
	if err := cp.Save(4242); err != nil {
		t.Fatal(err)
	}
	if got := cp.Load(); got != 4242 {
		t.Errorf("Load after repair = %d, want 4242", got)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("stale temp file survived Save: %v", err)
	}
}

// TestTailerRestartResumesFromCheckpoint replays the rollover scenario for
// tailers: produce, drain with checkpointing, "restart" the tailer (new
// instance, same checkpoint), produce more — nothing is replayed or lost.
func TestTailerRestartResumesFromCheckpoint(t *testing.T) {
	bus := scribe.NewBus(0)
	l := newLeaf(t, 0, 1<<40)
	p := NewPlacer([]Target{leafTarget{l}}, 5)
	cp := NewCheckpoint(filepath.Join(t.TempDir(), "t.ckpt"))

	produce := func(n int, start int64) {
		for i := 0; i < n; i++ {
			b, err := EncodeRow(rowblock.Row{Time: start + int64(i)})
			if err != nil {
				t.Fatal(err)
			}
			bus.Append("c", b)
		}
	}
	count := func() float64 {
		q := &query.Query{Table: "t", From: 0, To: 1 << 40,
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

	produce(1000, 0)
	t1 := New(Config{Category: "c", Table: "t", Checkpoint: cp}, bus, p, 0)
	if _, err := t1.DrainOnce(); err != nil {
		t.Fatal(err)
	}
	if got := count(); got != 1000 {
		t.Fatalf("after first drain: %v", got)
	}

	// "Restart": a new tailer instance with the same checkpoint. More rows
	// arrived while it was down.
	produce(500, 5000)
	t2 := New(Config{Category: "c", Table: "t", Checkpoint: cp}, bus, p, 0)
	if got, want := t2.Offset(), cp.Load(); got != want || want == 0 {
		t.Fatalf("restarted tailer at offset %d, want the checkpoint %d", got, want)
	}
	placed, err := t2.DrainOnce()
	if err != nil {
		t.Fatal(err)
	}
	if placed != 500 {
		t.Errorf("replayed or lost rows: placed %d, want 500", placed)
	}
	if got := count(); got != 1500 {
		t.Errorf("total = %v", got)
	}
}
