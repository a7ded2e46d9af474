package cluster

import (
	"fmt"
	"testing"
	"time"

	"scuba/internal/leaf"
	"scuba/internal/query"
	"scuba/internal/rowblock"
	"scuba/internal/tailer"
)

func newCluster(t *testing.T, machines, leavesPerMachine int) *Cluster {
	t.Helper()
	c, err := New(Config{
		Machines:            machines,
		LeavesPerMachine:    leavesPerMachine,
		ShmDir:              t.TempDir(),
		DiskRoot:            t.TempDir(),
		Namespace:           "test",
		MemoryBudgetPerLeaf: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// loadCluster spreads rows across all nodes via a tailer placer.
func loadCluster(t *testing.T, c *Cluster, totalRows int) {
	t.Helper()
	p := tailer.NewPlacer(c.Targets(), 42)
	const batch = 100
	for sent := 0; sent < totalRows; sent += batch {
		rows := make([]rowblock.Row, batch)
		for i := range rows {
			rows[i] = rowblock.Row{Time: int64(1000 + sent + i), Cols: map[string]rowblock.Value{
				"service": rowblock.StringValue(fmt.Sprintf("svc-%d", (sent+i)%3)),
			}}
		}
		if _, err := p.Place("events", rows); err != nil {
			t.Fatal(err)
		}
	}
}

func totalCount(t *testing.T, c *Cluster) (float64, *query.Result) {
	t.Helper()
	q := &query.Query{Table: "events", From: 0, To: 1 << 40,
		Aggregations: []query.Aggregation{{Op: query.AggCount}}}
	res, err := c.NewAggregator().Query(q)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows(q)
	if len(rows) == 0 {
		return 0, res
	}
	return rows[0].Values[0], res
}

func TestClusterBasics(t *testing.T) {
	c := newCluster(t, 2, 4)
	if c.Size() != 8 {
		t.Fatalf("size = %d", c.Size())
	}
	loadCluster(t, c, 2000)
	got, res := totalCount(t, c)
	if got != 2000 {
		t.Errorf("count = %v", got)
	}
	if res.Coverage() != 1 {
		t.Errorf("coverage = %v", res.Coverage())
	}
	snap := c.Snapshot(2)
	if snap.OldVersion != 8 || snap.NewVersion != 0 || snap.RollingOver != 0 {
		t.Errorf("snapshot = %+v", snap)
	}
}

func TestSingleNodeRestartShm(t *testing.T) {
	c := newCluster(t, 1, 4)
	loadCluster(t, c, 1000)
	before, _ := totalCount(t, c)

	rep, err := c.Node(0).Restart(RestartOptions{UseShm: true, NewVersion: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recovery.Path != leaf.RecoveryMemory {
		t.Errorf("recovery = %v", rep.Recovery.Path)
	}
	if c.Node(0).Version() != 2 {
		t.Errorf("version = %d", c.Node(0).Version())
	}
	after, _ := totalCount(t, c)
	if after != before {
		t.Errorf("count %v -> %v across restart", before, after)
	}
}

func TestSingleNodeRestartDisk(t *testing.T) {
	c := newCluster(t, 1, 2)
	loadCluster(t, c, 500)
	before, _ := totalCount(t, c)
	rep, err := c.Node(0).Restart(RestartOptions{UseShm: false, NewVersion: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recovery.Path != leaf.RecoveryDisk && rep.Recovery.Path != leaf.RecoveryNone {
		t.Errorf("recovery = %v", rep.Recovery.Path)
	}
	after, _ := totalCount(t, c)
	if after != before {
		t.Errorf("count %v -> %v across restart", before, after)
	}
}

func TestKilledLeafRestartsFromDisk(t *testing.T) {
	c := newCluster(t, 1, 2)
	loadCluster(t, c, 500)
	before, _ := totalCount(t, c)
	rep, err := c.Node(0).Restart(RestartOptions{UseShm: true, NewVersion: 2, ForceKill: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Killed {
		t.Error("not marked killed")
	}
	if rep.Recovery.Path == leaf.RecoveryMemory {
		t.Error("killed leaf recovered from shared memory")
	}
	after, _ := totalCount(t, c)
	if after != before {
		t.Errorf("count %v -> %v", before, after)
	}
}

func TestQueriesDuringRestartArePartial(t *testing.T) {
	c := newCluster(t, 2, 2)
	loadCluster(t, c, 1000)
	// Take one node down manually (shutdown without restart).
	l := c.Node(3).current()
	if _, err := l.Shutdown(); err != nil {
		t.Fatal(err)
	}
	c.Node(3).mu.Lock()
	c.Node(3).leaf = nil
	c.Node(3).mu.Unlock()

	got, res := totalCount(t, c)
	if res.LeavesAnswered != 3 || res.LeavesTotal != 4 {
		t.Errorf("coverage = %d/%d", res.LeavesAnswered, res.LeavesTotal)
	}
	if got >= 1000 {
		t.Errorf("count = %v, expected partial", got)
	}
	snap := c.Snapshot(1)
	if snap.RollingOver != 1 {
		t.Errorf("snapshot = %+v", snap)
	}
}

func TestRolloverShm(t *testing.T) {
	c := newCluster(t, 4, 4) // 16 leaves
	loadCluster(t, c, 4000)
	before, _ := totalCount(t, c)

	var minAvail = 1.0
	rep, err := c.Rollover(RolloverConfig{
		BatchFraction: 0.125, // 2 leaves per batch
		UseShm:        true,
		TargetVersion: 2,
		OnBatch: func(_ int, s Snapshot) {
			if s.AvailableFraction < minAvail {
				minAvail = s.AvailableFraction
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Batches != 8 {
		t.Errorf("batches = %d", rep.Batches)
	}
	if rep.MemoryRecoveries+rep.DiskRecoveries != 16 {
		t.Errorf("recoveries = %d + %d", rep.MemoryRecoveries, rep.DiskRecoveries)
	}
	if rep.DiskRecoveries > 0 {
		t.Errorf("disk recoveries during shm rollover: %d", rep.DiskRecoveries)
	}
	// Everything upgraded and alive.
	snap := c.Snapshot(2)
	if snap.NewVersion != 16 || snap.RollingOver != 0 || snap.OldVersion != 0 {
		t.Errorf("final snapshot = %+v", snap)
	}
	after, _ := totalCount(t, c)
	if after != before {
		t.Errorf("count %v -> %v across rollover", before, after)
	}
	if len(rep.Timeline) != 8 {
		t.Errorf("timeline = %d points", len(rep.Timeline))
	}
	if rep.MinAvailability < 0.8 {
		t.Errorf("min availability = %v", rep.MinAvailability)
	}
}

func TestRolloverDiskBaseline(t *testing.T) {
	c := newCluster(t, 2, 4)
	loadCluster(t, c, 2000)
	before, _ := totalCount(t, c)
	rep, err := c.Rollover(RolloverConfig{
		BatchFraction: 0.25,
		UseShm:        false,
		TargetVersion: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MemoryRecoveries != 0 {
		t.Errorf("memory recoveries in disk rollover: %d", rep.MemoryRecoveries)
	}
	after, _ := totalCount(t, c)
	if after != before {
		t.Errorf("count %v -> %v", before, after)
	}
}

func TestRolloverOneLeafPerMachinePerBatch(t *testing.T) {
	// §2: restart leaves on distinct machines so each gets full bandwidth.
	c := newCluster(t, 4, 4)
	// Batch of 4 = 25%: must be one per machine, not 4 on machine 0.
	pending := make([]*Node, len(c.nodes))
	copy(pending, c.nodes)
	batch, rest := pickBatch(pending, 4, 1, func(n *Node) int { return n.Machine }, nil)
	if len(batch) != 4 {
		t.Fatalf("batch size = %d", len(batch))
	}
	machines := map[int]bool{}
	for _, n := range batch {
		if machines[n.Machine] {
			t.Errorf("two leaves of machine %d in one batch", n.Machine)
		}
		machines[n.Machine] = true
	}
	if len(rest) != 12 {
		t.Errorf("rest = %d", len(rest))
	}
}

func TestRolloverDefaultsTwoPercent(t *testing.T) {
	c := newCluster(t, 2, 2)
	loadCluster(t, c, 100)
	rep, err := c.Rollover(RolloverConfig{UseShm: true})
	if err != nil {
		t.Fatal(err)
	}
	// ceil(0.02*4) = 1 per batch -> 4 batches.
	if rep.Batches != 4 {
		t.Errorf("batches = %d", rep.Batches)
	}
	// Default target version bumps 1 -> 2.
	if got := c.Snapshot(2); got.NewVersion != 4 {
		t.Errorf("snapshot = %+v", got)
	}
}

func TestIngestContinuesDuringRollover(t *testing.T) {
	c := newCluster(t, 2, 4)
	loadCluster(t, c, 800)
	p := tailer.NewPlacer(c.Targets(), 7)

	stop := make(chan struct{})
	rowsAdded := make(chan int, 1)
	go func() {
		added := 0
		for {
			select {
			case <-stop:
				rowsAdded <- added
				return
			default:
				rows := []rowblock.Row{{Time: time.Now().Unix(), Cols: map[string]rowblock.Value{
					"service": rowblock.StringValue("live"),
				}}}
				if _, err := p.Place("events", rows); err == nil {
					added++
				}
			}
		}
	}()
	if _, err := c.Rollover(RolloverConfig{BatchFraction: 0.25, UseShm: true, TargetVersion: 2}); err != nil {
		t.Fatal(err)
	}
	close(stop)
	added := <-rowsAdded
	if added == 0 {
		t.Error("no rows ingested during rollover")
	}
	got, _ := totalCount(t, c)
	if got != float64(800+added) {
		t.Errorf("count = %v, want %d", got, 800+added)
	}
}

func TestSnapshotString(t *testing.T) {
	s := Snapshot{OldVersion: 3, RollingOver: 1, NewVersion: 4, AvailableFraction: 0.875}
	if got := s.String(); got != "old=3 rolling=1 new=4 available=87.5%" {
		t.Errorf("String = %q", got)
	}
}
