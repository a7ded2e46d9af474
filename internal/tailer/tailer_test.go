package tailer

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"scuba/internal/leaf"
	"scuba/internal/query"
	"scuba/internal/rowblock"
	"scuba/internal/scribe"
	"scuba/internal/shm"
)

// leafTarget adapts *leaf.Leaf to the Target interface.
type leafTarget struct{ l *leaf.Leaf }

func (t leafTarget) Stats() (leaf.Stats, error) { return t.l.Stats(), nil }
func (t leafTarget) AddRows(table string, rows []rowblock.Row) error {
	return t.l.AddRows(table, rows)
}

func newLeaf(t *testing.T, id int, budget int64) *leaf.Leaf {
	t.Helper()
	l, err := leaf.New(leaf.Config{
		ID:           id,
		Shm:          shm.Options{Dir: t.TempDir(), Namespace: "test"},
		DiskRoot:     t.TempDir(),
		MemoryBudget: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Start(); err != nil {
		t.Fatal(err)
	}
	return l
}

func TestRowCodecRoundTrip(t *testing.T) {
	r := rowblock.Row{
		Time: 1234,
		Cols: map[string]rowblock.Value{
			"s":   rowblock.StringValue("hello"),
			"i":   rowblock.Int64Value(-7),
			"f":   rowblock.Float64Value(2.5),
			"set": rowblock.SetValue("a", "b"),
		},
	}
	b, err := EncodeRow(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRow(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Time != 1234 || got.Cols["s"].Str != "hello" || got.Cols["i"].Int != -7 ||
		got.Cols["f"].Float != 2.5 || len(got.Cols["set"].Set) != 2 {
		t.Errorf("round trip = %+v", got)
	}
	if _, err := DecodeRow([]byte("garbage")); err == nil {
		t.Error("garbage decoded")
	}
	// A Scribe message is exactly one row payload.
	if _, err := DecodeRow(append(b, 0)); err == nil {
		t.Error("payload with a trailing byte decoded")
	}
	if _, err := EncodeRow(rowblock.Row{Cols: map[string]rowblock.Value{"x": {}}}); err == nil {
		t.Error("typeless value encoded")
	}
}

func TestPlacerPrefersMoreFreeMemory(t *testing.T) {
	big := newLeaf(t, 0, 1<<40)
	small := newLeaf(t, 1, 1) // effectively no free memory
	p := NewPlacer([]Target{leafTarget{big}, leafTarget{small}}, 42)
	rows := []rowblock.Row{{Time: 1}}
	for i := 0; i < 20; i++ {
		idx, err := p.Place("t", rows)
		if err != nil {
			t.Fatal(err)
		}
		if idx != 0 {
			t.Fatalf("batch %d went to the full leaf", i)
		}
	}
	st := p.Stats()
	if st.BothAlive != 20 || st.PerTarget[0] != 20 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPlacerAvoidsDeadLeaf(t *testing.T) {
	alive := newLeaf(t, 0, 1<<30)
	dead := newLeaf(t, 1, 1<<30)
	if _, err := dead.Shutdown(); err != nil {
		t.Fatal(err)
	}
	p := NewPlacer([]Target{leafTarget{alive}, leafTarget{dead}}, 7)
	for i := 0; i < 10; i++ {
		idx, err := p.Place("t", []rowblock.Row{{Time: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if idx != 0 {
			t.Fatal("batch sent to exited leaf")
		}
	}
}

func TestPlacerFallsBackToRecoveringLeaf(t *testing.T) {
	// All leaves down except one in DISK_RECOVERY: after enough tries the
	// batch goes there (§2).
	rec := recoveringTarget{}
	p := NewPlacer([]Target{deadTarget{}, rec, deadTarget{}}, 3)
	idx, err := p.Place("t", []rowblock.Row{{Time: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Errorf("idx = %d", idx)
	}
	if p.Stats().SentToRecovery != 1 {
		t.Errorf("stats = %+v", p.Stats())
	}
}

func TestPlacerNoTargets(t *testing.T) {
	p := NewPlacer(nil, 1)
	if _, err := p.Place("t", []rowblock.Row{{Time: 1}}); !errors.Is(err, ErrNoTarget) {
		t.Errorf("err = %v", err)
	}
	p2 := NewPlacer([]Target{deadTarget{}, deadTarget{}}, 1)
	if _, err := p2.Place("t", []rowblock.Row{{Time: 1}}); !errors.Is(err, ErrNoTarget) {
		t.Errorf("err = %v", err)
	}
}

type deadTarget struct{}

func (deadTarget) Stats() (leaf.Stats, error) { return leaf.Stats{State: leaf.StateExit}, nil }
func (deadTarget) AddRows(string, []rowblock.Row) error {
	return errors.New("dead")
}

type recoveringTarget struct{}

func (recoveringTarget) Stats() (leaf.Stats, error) {
	return leaf.Stats{State: leaf.StateDiskRecovery}, nil
}
func (recoveringTarget) AddRows(string, []rowblock.Row) error { return nil }

func TestPlacerBalance(t *testing.T) {
	// E10: with equal capacity, two-random-choice spreads batches evenly.
	const n = 8
	targets := make([]Target, n)
	leaves := make([]*leaf.Leaf, n)
	for i := range targets {
		leaves[i] = newLeaf(t, i, 1<<40)
		targets[i] = leafTarget{leaves[i]}
	}
	p := NewPlacer(targets, 99)
	rows := make([]rowblock.Row, 10)
	for i := range rows {
		rows[i] = rowblock.Row{Time: int64(i), Cols: map[string]rowblock.Value{
			"v": rowblock.Int64Value(int64(i)),
		}}
	}
	const batches = 800
	for i := 0; i < batches; i++ {
		if _, err := p.Place("t", rows); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	for i, c := range st.PerTarget {
		if c < batches/n/2 || c > batches/n*2 {
			t.Errorf("target %d got %d of %d batches (unbalanced)", i, c, batches)
		}
	}
	if st.RowsPlaced != batches*10 {
		t.Errorf("rows placed = %d", st.RowsPlaced)
	}
}

func TestPolicyRandomIgnoresFreeMemory(t *testing.T) {
	big := newLeaf(t, 0, 1<<40)
	small := newLeaf(t, 1, 1)
	p := NewPlacer([]Target{leafTarget{big}, leafTarget{small}}, 42)
	p.Policy = PolicyRandom
	counts := [2]int{}
	for i := 0; i < 200; i++ {
		idx, err := p.Place("t", []rowblock.Row{{Time: 1}})
		if err != nil {
			t.Fatal(err)
		}
		counts[idx]++
	}
	// Uniform random: the full leaf still receives roughly half the load —
	// exactly the imbalance two-random-choice avoids.
	if counts[1] < 50 {
		t.Errorf("random policy sent only %d/200 batches to the full leaf", counts[1])
	}
}

func TestPolicyRandomSkipsDeadLeaves(t *testing.T) {
	alive := newLeaf(t, 0, 1<<30)
	p := NewPlacer([]Target{deadTarget{}, leafTarget{alive}, deadTarget{}}, 3)
	p.Policy = PolicyRandom
	p.maxTries = 16
	for i := 0; i < 20; i++ {
		idx, err := p.Place("t", []rowblock.Row{{Time: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if idx != 1 {
			t.Fatalf("batch sent to dead target %d", idx)
		}
	}
}

func TestTailerDrainEndToEnd(t *testing.T) {
	bus := scribe.NewBus(0)
	l := newLeaf(t, 0, 1<<40)
	p := NewPlacer([]Target{leafTarget{l}}, 5)
	// Produce 2500 events.
	for i := 0; i < 2500; i++ {
		row := rowblock.Row{Time: int64(1000 + i), Cols: map[string]rowblock.Value{
			"service": rowblock.StringValue(fmt.Sprintf("svc-%d", i%3)),
		}}
		payload, err := EncodeRow(row)
		if err != nil {
			t.Fatal(err)
		}
		bus.Append("events", payload)
	}
	tl := New(Config{Category: "events", BatchRows: 100}, bus, p, 0)
	placed, err := tl.DrainOnce()
	if err != nil {
		t.Fatal(err)
	}
	if placed != 2500 {
		t.Errorf("placed = %d", placed)
	}
	q := &query.Query{Table: "events", From: 0, To: 1 << 40,
		Aggregations: []query.Aggregation{{Op: query.AggCount}}}
	res, err := l.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if rows := res.Rows(q); len(rows) == 0 || rows[0].Values[0] != 2500 {
		t.Errorf("count = %v", rows)
	}
	// Draining again finds nothing new.
	placed, err = tl.DrainOnce()
	if err != nil || placed != 0 {
		t.Errorf("second drain: %d, %v", placed, err)
	}
}

func TestTailerSkipsBadPayloads(t *testing.T) {
	bus := scribe.NewBus(0)
	l := newLeaf(t, 0, 1<<40)
	p := NewPlacer([]Target{leafTarget{l}}, 5)
	good, err := EncodeRow(rowblock.Row{Time: 1})
	if err != nil {
		t.Fatal(err)
	}
	bus.Append("c", []byte("junk"))
	bus.Append("c", good)
	bus.Append("c", []byte{0xff, 0x00})
	tl := New(Config{Category: "c", Table: "t"}, bus, p, 0)
	placed, err := tl.DrainOnce()
	if err != nil {
		t.Fatal(err)
	}
	if placed != 1 || tl.RowsBad != 2 {
		t.Errorf("placed %d bad %d", placed, tl.RowsBad)
	}
}

func TestTailerCountsLostRows(t *testing.T) {
	bus := scribe.NewBus(3)
	l := newLeaf(t, 0, 1<<40)
	p := NewPlacer([]Target{leafTarget{l}}, 5)
	for i := 0; i < 10; i++ {
		b, err := EncodeRow(rowblock.Row{Time: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		bus.Append("c", b)
	}
	tl := New(Config{Category: "c", Table: "t"}, bus, p, 0)
	placed, err := tl.DrainOnce()
	if err != nil {
		t.Fatal(err)
	}
	if placed != 3 || tl.RowsLost != 7 {
		t.Errorf("placed %d lost %d", placed, tl.RowsLost)
	}
}

// refusingPlacer answers ErrNoTarget to its first refuse calls, then records
// the time of every row it is given.
type refusingPlacer struct {
	mu     sync.Mutex
	refuse int
	times  []int64
}

func (p *refusingPlacer) Place(_ string, rows []rowblock.Row) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.refuse > 0 {
		p.refuse--
		return -1, ErrNoTarget
	}
	for _, r := range rows {
		p.times = append(p.times, r.Time)
	}
	return 0, nil
}

func (p *refusingPlacer) placed() []int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]int64(nil), p.times...)
}

// TestRunRetriesABatchNoLeafTakes: a batch no leaf accepts is tried again on
// Run's next tick, not dropped with the rest of its poll — every row lands
// exactly once, an undecodable message among them is counted once, nothing
// is counted lost, and the checkpoint ends past the last placed message.
func TestRunRetriesABatchNoLeafTakes(t *testing.T) {
	const rows = 35
	bus := scribe.NewBus(0)
	for i := range rows {
		if i == 3 {
			bus.Append("c", []byte("junk"))
		}
		payload, err := EncodeRow(rowblock.Row{Time: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		bus.Append("c", payload)
	}
	p := &refusingPlacer{refuse: 3}
	cp := NewCheckpoint(filepath.Join(t.TempDir(), "c.ckpt"))
	tl := New(Config{Category: "c", Table: "t", BatchRows: 10, FlushInterval: 5 * time.Millisecond, Checkpoint: cp}, bus, p, 0)
	stop, errc := make(chan struct{}), make(chan error, 1)
	go func() { errc <- tl.Run(stop) }()
	for deadline := time.Now().Add(5 * time.Second); len(p.placed()) < rows && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	got, want := p.placed(), make([]int64, rows)
	for i := range want {
		want[i] = int64(i)
	}
	if slices.Sort(got); !slices.Equal(got, want) {
		t.Errorf("placed rows %v, want each of 0..%d once", got, rows-1)
	}
	if tl.RowsLost != 0 || tl.RowsBad != 1 {
		t.Errorf("lost %d, bad %d; want 0 and 1", tl.RowsLost, tl.RowsBad)
	}
	if saved, end := cp.Load(), bus.End("c"); saved != end {
		t.Errorf("checkpoint %d, want %d", saved, end)
	}
}
