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

// aliveOn counts the nodes serving on software version v.
func aliveOn(c *Cluster, v int) int {
	n := 0
	for _, node := range c.Nodes() {
		if st, _ := node.Stats(); st.State == leaf.StateAlive && node.Version() == v {
			n++
		}
	}
	return n
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
	if got := aliveOn(c, 1); got != 8 {
		t.Errorf("%d of 8 nodes alive on version 1", got)
	}
}

func TestSingleNodeRestartShm(t *testing.T) {
	c := newCluster(t, 1, 4)
	loadCluster(t, c, 1000)
	before, _ := totalCount(t, c)

	rs := c.Node(0).Restart(RolloverConfig{UseShm: true, TargetVersion: 2})
	if rs.Err != "" {
		t.Fatal(rs.Err)
	}
	if rs.Recovery != leaf.RecoveryMemory || rs.Killed || rs.Gap <= 0 || rs.Duration < rs.Gap {
		t.Errorf("restart = %+v", rs)
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
	rs := c.Node(0).Restart(RolloverConfig{TargetVersion: 2})
	if rs.Err != "" {
		t.Fatal(rs.Err)
	}
	if rs.Recovery != leaf.RecoveryDisk && rs.Recovery != leaf.RecoveryNone {
		t.Errorf("recovery = %v", rs.Recovery)
	}
	after, _ := totalCount(t, c)
	if after != before {
		t.Errorf("count %v -> %v across restart", before, after)
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
	if got := aliveOn(c, 1); got != 3 {
		t.Errorf("%d of 4 nodes alive with one shut down", got)
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

func addNodeRows(t *testing.T, n *Node, tableName string, count int) {
	t.Helper()
	rows := make([]rowblock.Row, count)
	for i := range rows {
		rows[i] = rowblock.Row{Time: int64(1000 + i), Cols: map[string]rowblock.Value{
			"service": rowblock.StringValue("svc"),
		}}
	}
	if err := n.AddRows(tableName, rows); err != nil {
		t.Fatal(err)
	}
}
