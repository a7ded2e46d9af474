package aggregator

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"scuba/internal/leaf"
	"scuba/internal/metrics"
	"scuba/internal/obs"
	"scuba/internal/query"
	"scuba/internal/rowblock"
	"scuba/internal/shm"
)

func newLeaf(t *testing.T, id int) *leaf.Leaf {
	t.Helper()
	l, err := leaf.New(leaf.Config{
		ID:       id,
		Shm:      shm.Options{Dir: t.TempDir(), Namespace: "test"},
		DiskRoot: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Start(); err != nil {
		t.Fatal(err)
	}
	return l
}

func ingest(t *testing.T, l *leaf.Leaf, n int, start int64) {
	t.Helper()
	rows := make([]rowblock.Row, n)
	for i := range rows {
		rows[i] = rowblock.Row{Time: start + int64(i), Cols: map[string]rowblock.Value{
			"service": rowblock.StringValue(fmt.Sprintf("svc-%d", i%2)),
			"v":       rowblock.Int64Value(1),
		}}
	}
	if err := l.AddRows("events", rows); err != nil {
		t.Fatal(err)
	}
}

func countQuery() *query.Query {
	return &query.Query{Table: "events", From: 0, To: 1 << 40,
		Aggregations: []query.Aggregation{{Op: query.AggCount}}}
}

func TestFanOutMerge(t *testing.T) {
	leaves := make([]LeafTarget, 4)
	for i := range leaves {
		l := newLeaf(t, i)
		ingest(t, l, 100*(i+1), int64(i*1000))
		leaves[i] = l
	}
	a := New(leaves)
	q := countQuery()
	res, err := a.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows(q)
	if rows[0].Values[0] != 100+200+300+400 {
		t.Errorf("count = %v", rows[0].Values[0])
	}
	if res.LeavesTotal != 4 || res.LeavesAnswered != 4 {
		t.Errorf("coverage = %d/%d", res.LeavesAnswered, res.LeavesTotal)
	}
	if res.Coverage() != 1 {
		t.Errorf("coverage = %v", res.Coverage())
	}
}

func TestPartialResultsWhenLeafDown(t *testing.T) {
	// The core availability property (§1): queries keep working with
	// partial results while leaves restart.
	l0, l1 := newLeaf(t, 0), newLeaf(t, 1)
	ingest(t, l0, 100, 0)
	ingest(t, l1, 100, 5000)
	if _, err := l1.Shutdown(); err != nil {
		t.Fatal(err)
	}
	a := New([]LeafTarget{l0, l1})
	q := countQuery()
	res, err := a.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows(q)
	if rows[0].Values[0] != 100 {
		t.Errorf("count = %v, want only the live leaf's rows", rows[0].Values[0])
	}
	if res.LeavesAnswered != 1 || res.LeavesTotal != 2 {
		t.Errorf("coverage = %d/%d", res.LeavesAnswered, res.LeavesTotal)
	}
	if math.Abs(res.Coverage()-0.5) > 1e-9 {
		t.Errorf("coverage = %v", res.Coverage())
	}
}

func TestGroupByAcrossLeaves(t *testing.T) {
	l0, l1 := newLeaf(t, 0), newLeaf(t, 1)
	ingest(t, l0, 100, 0)
	ingest(t, l1, 100, 5000)
	a := New([]LeafTarget{l0, l1})
	q := &query.Query{Table: "events", From: 0, To: 1 << 40,
		Aggregations: []query.Aggregation{{Op: query.AggCount}, {Op: query.AggSum, Column: "v"}},
		GroupBy:      []string{"service"}}
	res, err := a.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows(q)
	if len(rows) != 2 {
		t.Fatalf("groups = %d", len(rows))
	}
	for _, r := range rows {
		if r.Values[0] != 100 || r.Values[1] != 100 {
			t.Errorf("group %v = %v", r.Key, r.Values)
		}
	}
}

func TestNoLeaves(t *testing.T) {
	a := New(nil)
	if _, err := a.Query(countQuery()); !errors.Is(err, ErrNoLeaves) {
		t.Errorf("err = %v", err)
	}
}

func TestInvalidQueryRejectedBeforeFanOut(t *testing.T) {
	a := New([]LeafTarget{newLeaf(t, 0)})
	bad := &query.Query{Table: "", From: 0, To: 1}
	if _, err := a.Query(bad); err == nil {
		t.Error("invalid query accepted")
	}
}

func TestHierarchicalAggregation(t *testing.T) {
	// Scuba runs trees of aggregators; coverage must propagate through the
	// levels instead of counting a downstream aggregator as one leaf.
	l0, l1, l2 := newLeaf(t, 0), newLeaf(t, 1), newLeaf(t, 2)
	ingest(t, l0, 100, 0)
	ingest(t, l1, 200, 1000)
	ingest(t, l2, 300, 2000)
	if _, err := l2.Shutdown(); err != nil { // one leaf down
		t.Fatal(err)
	}
	lower1 := New([]LeafTarget{l0, l1})
	lower2 := New([]LeafTarget{l2})
	root := New([]LeafTarget{plain{aggTarget{lower1}}, plain{aggTarget{lower2}}})

	q := countQuery()
	res, err := root.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.LeavesTotal != 3 || res.LeavesAnswered != 2 {
		t.Errorf("coverage = %d/%d, want 2/3", res.LeavesAnswered, res.LeavesTotal)
	}
	if rows := res.Rows(q); rows[0].Values[0] != 300 {
		t.Errorf("count = %v, want 300 (l2 down)", rows[0].Values[0])
	}
}

// aggTarget adapts an aggregator as a query target of a higher level.
type aggTarget struct{ a *Aggregator }

func (t aggTarget) Query(q *query.Query) (*query.Result, error) { return t.a.Query(q) }

// querier is what the Query-only fakes of this package implement; plain
// adapts one to LeafTarget: it answers its whole table whatever shards and
// trace it is handed, and reports nothing.
type querier interface {
	Query(q *query.Query) (*query.Result, error)
}

type plain struct{ querier }

func (p plain) QueryShards(q *query.Query, _ []int, _ obs.TraceContext) (*query.Result, *obs.ExecStats, error) {
	res, err := p.Query(q)
	return res, nil, err
}

func TestQueryMetrics(t *testing.T) {
	leaves := make([]LeafTarget, 3)
	for i := range leaves {
		l := newLeaf(t, i)
		ingest(t, l, 50, int64(i*1000))
		leaves[i] = l
	}
	a := New(leaves)
	a.Metrics = metrics.NewRegistry()
	for i := 0; i < 4; i++ {
		if _, err := a.Query(countQuery()); err != nil {
			t.Fatal(err)
		}
	}
	r := a.Metrics
	if got := r.Counter("query.count").Value(); got != 4 {
		t.Errorf("query.count = %d", got)
	}
	if a.NumLeaves() != 3 {
		t.Errorf("NumLeaves = %d", a.NumLeaves())
	}
	if got := r.Counter("query.leaves_answered").Value(); got != 12 {
		t.Errorf("query.leaves_answered = %d", got)
	}
	if st := r.Timer("query.latency").Stats(); st.Count != 4 {
		t.Errorf("latency timer count = %d", st.Count)
	}
	if st := r.Histogram("query.latency_hist").Stats(); st.Count != 4 || !st.IsDuration {
		t.Errorf("latency histogram = %+v", st)
	}
	if st := r.Histogram("query.fanout").Stats(); st.Count != 4 || st.Max != 3 {
		t.Errorf("fanout histogram = %+v", st)
	}
	// Validation failures count as errors, not latency samples.
	if _, err := a.Query(&query.Query{}); err == nil {
		t.Fatal("empty query accepted")
	}
	if got := r.Counter("query.errors").Value(); got != 1 {
		t.Errorf("query.errors = %d", got)
	}
}
