package wire

import (
	"strings"
	"sync"
	"testing"

	"scuba/internal/aggregator"
	"scuba/internal/leaf"
	"scuba/internal/query"
	"scuba/internal/rowblock"
	"scuba/internal/shm"
	"scuba/internal/tailer"
)

func newServer(t *testing.T, id int) (*Server, *Client, *leaf.Leaf) {
	t.Helper()
	l, err := leaf.New(leaf.Config{
		ID:           id,
		Shm:          shm.Options{Dir: t.TempDir(), Namespace: "test"},
		DiskRoot:     t.TempDir(),
		MemoryBudget: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Start(); err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(l, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c := Dial(s.Addr())
	t.Cleanup(func() { c.Close() })
	return s, c, l
}

func mkRows(n int, start int64) []rowblock.Row {
	rows := make([]rowblock.Row, n)
	for i := range rows {
		rows[i] = rowblock.Row{Time: start + int64(i), Cols: map[string]rowblock.Value{
			"service": rowblock.StringValue("web"),
			"lat":     rowblock.Int64Value(int64(i)),
		}}
	}
	return rows
}

func TestPing(t *testing.T) {
	_, c, _ := newServer(t, 0)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestAddAndQueryOverWire(t *testing.T) {
	_, c, _ := newServer(t, 0)
	if err := c.AddRows("events", mkRows(500, 1000)); err != nil {
		t.Fatal(err)
	}
	q := &query.Query{Table: "events", From: 0, To: 1 << 40,
		Aggregations: []query.Aggregation{
			{Op: query.AggCount},
			{Op: query.AggSum, Column: "lat"},
			{Op: query.AggP90, Column: "lat"},
		},
		GroupBy: []string{"service"}}
	res, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows(q)
	if len(rows) != 1 || rows[0].Values[0] != 500 {
		t.Fatalf("rows = %v", rows)
	}
	wantSum := float64(499*500) / 2
	if rows[0].Values[1] != wantSum {
		t.Errorf("sum = %v, want %v", rows[0].Values[1], wantSum)
	}
	if rows[0].Values[2] <= 0 {
		t.Errorf("p90 = %v", rows[0].Values[2])
	}
}

func TestStatsOverWire(t *testing.T) {
	_, c, _ := newServer(t, 5)
	if err := c.AddRows("events", mkRows(10, 0)); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != 5 || st.State != leaf.StateAlive || st.Tables != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestErrorsPropagate(t *testing.T) {
	_, c, _ := newServer(t, 0)
	bad := &query.Query{Table: "", From: 0, To: 1}
	if _, err := c.Query(bad); err == nil || !strings.Contains(err.Error(), "table required") {
		t.Errorf("err = %v", err)
	}
}

func TestShutdownRPC(t *testing.T) {
	s, c, l := newServer(t, 0)
	if err := c.AddRows("events", mkRows(100, 1000)); err != nil {
		t.Fatal(err)
	}
	info, err := c.Shutdown(true)
	if err != nil {
		t.Fatal(err)
	}
	if !info.ToShm || info.Tables != 1 {
		t.Errorf("info = %+v", info)
	}
	select {
	case got := <-s.ShutdownRequested():
		if got.Tables != 1 {
			t.Errorf("channel info = %+v", got)
		}
	default:
		t.Error("shutdown not signalled to owner")
	}
	if l.State() != leaf.StateExit {
		t.Errorf("leaf state = %v", l.State())
	}
	// Requests after shutdown fail with a remote error.
	if err := c.AddRows("events", mkRows(1, 0)); err == nil {
		t.Error("add after shutdown succeeded")
	}
}

func TestServerMetrics(t *testing.T) {
	s, c, _ := newServer(t, 0)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c.AddRows("events", mkRows(25, 0)); err != nil {
		t.Fatal(err)
	}
	q := &query.Query{Table: "events", From: 0, To: 1 << 40,
		Aggregations: []query.Aggregation{{Op: query.AggCount}}}
	if _, err := c.Query(q); err != nil {
		t.Fatal(err)
	}
	c.Query(&query.Query{}) //nolint:errcheck // deliberately invalid

	reg := s.Metrics()
	if reg.Counter("rpc.ping").Value() != 1 {
		t.Errorf("ping count = %d", reg.Counter("rpc.ping").Value())
	}
	if reg.Counter("rows.added").Value() != 25 {
		t.Errorf("rows.added = %d", reg.Counter("rows.added").Value())
	}
	if reg.Counter("rpc.query").Value() != 2 {
		t.Errorf("query count = %d", reg.Counter("rpc.query").Value())
	}
	if reg.Counter("rpc.errors").Value() != 1 {
		t.Errorf("errors = %d", reg.Counter("rpc.errors").Value())
	}
	if reg.Timer("query.latency").Stats().Count != 1 {
		t.Errorf("latency observations = %d", reg.Timer("query.latency").Stats().Count)
	}
}

func TestClientReconnects(t *testing.T) {
	s, c, _ := newServer(t, 0)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	// Kill the connection server-side; the next call must redial.
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	var err error
	for try := 0; try < 3; try++ {
		if err = c.Ping(); err == nil {
			break
		}
	}
	if err != nil {
		t.Fatalf("client did not recover: %v", err)
	}
}

func TestWireTargetsComposeWithTailerAndAggregator(t *testing.T) {
	// The networked client slots into the same placement and fan-out
	// machinery as in-process leaves.
	_, c0, _ := newServer(t, 0)
	_, c1, _ := newServer(t, 1)
	p := tailer.NewPlacer([]tailer.Target{c0, c1}, 11)
	for i := 0; i < 20; i++ {
		if _, err := p.Place("events", mkRows(50, int64(i*100))); err != nil {
			t.Fatal(err)
		}
	}
	agg := aggregator.New([]aggregator.LeafTarget{c0, c1})
	q := &query.Query{Table: "events", From: 0, To: 1 << 40,
		Aggregations: []query.Aggregation{{Op: query.AggCount}}}
	res, err := agg.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if rows := res.Rows(q); rows[0].Values[0] != 1000 {
		t.Errorf("count = %v", rows[0].Values[0])
	}
	if res.LeavesAnswered != 2 {
		t.Errorf("answered = %d", res.LeavesAnswered)
	}
}

func TestConcurrentClients(t *testing.T) {
	s, _, _ := newServer(t, 0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := Dial(s.Addr())
			defer c.Close()
			for i := 0; i < 20; i++ {
				if err := c.AddRows("events", mkRows(10, int64(w*1000+i*10))); err != nil {
					t.Errorf("add: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	c := Dial(s.Addr())
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows+int64(st.Blocks) == 0 && st.Tables != 1 {
		t.Errorf("stats = %+v", st)
	}
	q := &query.Query{Table: "events", From: 0, To: 1 << 40,
		Aggregations: []query.Aggregation{{Op: query.AggCount}}}
	res, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if rows := res.Rows(q); rows[0].Values[0] != 8*20*10 {
		t.Errorf("count = %v", rows[0].Values[0])
	}
}
