package query

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"scuba/internal/obs"
)

// AggState is the mergeable accumulator behind one aggregation output.
type AggState struct {
	Count int64
	Sum   float64
	Min   float64
	Max   float64
	Hist  *Histogram // allocated only for percentile ops
	// Distinct holds the exact value set for count-distinct. Exact sets
	// merge losslessly across leaves; memory is bounded by the true
	// cardinality, which for Scuba-style dimensions (hosts, services,
	// products) is small.
	Distinct map[string]bool
}

// newAggState returns an empty accumulator for the op.
func newAggState(op AggOp) *AggState {
	st := &AggState{Min: math.Inf(1), Max: math.Inf(-1)}
	if op.percentile() {
		st.Hist = &Histogram{}
	}
	if op == AggCountDistinct {
		st.Distinct = make(map[string]bool)
	}
	return st
}

// Observe folds one value in.
func (s *AggState) Observe(v float64) {
	s.Count++
	s.Sum += v
	if v < s.Min {
		s.Min = v
	}
	if v > s.Max {
		s.Max = v
	}
	if s.Hist != nil {
		s.Hist.Add(v)
	}
}

// ObserveDistinct folds one value into the distinct set.
func (s *AggState) ObserveDistinct(v string) {
	s.Count++
	if s.Distinct == nil {
		s.Distinct = make(map[string]bool)
	}
	s.Distinct[v] = true
}

// Merge folds another accumulator in.
func (s *AggState) Merge(o *AggState) {
	if o == nil {
		return
	}
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Min < s.Min {
		s.Min = o.Min
	}
	if o.Max > s.Max {
		s.Max = o.Max
	}
	if s.Hist != nil {
		s.Hist.Merge(o.Hist)
	} else if o.Hist != nil {
		h := &Histogram{}
		h.Merge(o.Hist)
		s.Hist = h
	}
	if len(o.Distinct) > 0 {
		if s.Distinct == nil {
			s.Distinct = make(map[string]bool, len(o.Distinct))
		}
		for v := range o.Distinct {
			s.Distinct[v] = true
		}
	}
}

// Value finalizes the accumulator for the op.
func (s *AggState) Value(op AggOp) float64 {
	switch op {
	case AggCount:
		return float64(s.Count)
	case AggSum:
		return s.Sum
	case AggMin:
		if s.Count == 0 {
			return 0
		}
		return s.Min
	case AggMax:
		if s.Count == 0 {
			return 0
		}
		return s.Max
	case AggAvg:
		if s.Count == 0 {
			return 0
		}
		return s.Sum / float64(s.Count)
	case AggP50:
		return s.Hist.Quantile(0.50)
	case AggP90:
		return s.Hist.Quantile(0.90)
	case AggP99:
		return s.Hist.Quantile(0.99)
	case AggCountDistinct:
		return float64(len(s.Distinct))
	default:
		return 0
	}
}

// Group is one group-by bucket with its accumulators (parallel to the
// query's Aggregations).
type Group struct {
	Key  []string
	Aggs []*AggState
}

const keySep = "\x00"

func keyString(key []string) string { return strings.Join(key, keySep) }

// PhaseTimes breaks one execution down by phase, in cumulative nanoseconds.
// Parallel scan workers each contribute their own time, so on a multi-core
// scan the phases sum to CPU time, not wall time. Merging results sums the
// phases — a merged aggregate answers "where did the work go" across every
// block (and, after the aggregator's merge, every leaf) that contributed.
type PhaseTimes struct {
	// DecodeNanos is time spent materializing columns: decode-cache lookups
	// plus LZ4/dictionary decode on misses.
	DecodeNanos int64
	// PruneNanos is time spent testing zone maps (both outcomes: blocks
	// pruned and blocks that had to be scanned anyway).
	PruneNanos int64
	// ScanNanos is time spent in per-row work: time masks, filters, group
	// keys, and aggregation folds (decode time excluded).
	ScanNanos int64
	// MergeNanos is time spent merging scan-worker partial results.
	MergeNanos int64
}

// Add folds another breakdown in.
func (p *PhaseTimes) Add(o PhaseTimes) {
	p.DecodeNanos += o.DecodeNanos
	p.PruneNanos += o.PruneNanos
	p.ScanNanos += o.ScanNanos
	p.MergeNanos += o.MergeNanos
}

// Result is a (possibly partial) query result. Merging partial results from
// many leaves is associative and commutative.
type Result struct {
	groups map[string]*Group
	// Coverage and work accounting.
	RowsScanned   int64
	BlocksScanned int64
	BlocksSkipped int64
	// BlocksPruned counts sealed blocks skipped because a zone map proved no
	// row could match a filter — cheaper than BlocksSkipped's time-header
	// prune only in that it is per-column, not just per-time-range.
	BlocksPruned   int64
	LeavesTotal    int // filled by the aggregator
	LeavesAnswered int
	// ShardsTotal/ShardsAnswered are per-shard coverage, filled by a
	// shard-routing aggregator (zero on unsharded deployments): how many of
	// the table's shards exist and how many were served by a live owner.
	// With replication, shard coverage stays at 1.0 while a leaf restarts
	// even though leaf coverage dips — the number dashboards should show.
	ShardsTotal    int
	ShardsAnswered int
	// Phases is the per-phase execution time breakdown, kept per leaf by the
	// tracing path (ExecStats) and summed across leaves on merge.
	Phases PhaseTimes
	// CacheHits/CacheMisses count this execution's decode-cache outcomes —
	// the per-query view of the query.decode_cache.{hits,misses} counters.
	CacheHits   int64
	CacheMisses int64
}

// NewResult returns an empty result.
func NewResult() *Result {
	return &Result{groups: make(map[string]*Group)}
}

// group returns (creating if needed) the accumulator row for a key.
func (r *Result) group(key []string, q *Query) *Group {
	ks := keyString(key)
	g, ok := r.groups[ks]
	if !ok {
		g = &Group{Key: append([]string(nil), key...), Aggs: make([]*AggState, len(q.Aggregations))}
		for i, a := range q.Aggregations {
			g.Aggs[i] = newAggState(a.Op)
		}
		r.groups[ks] = g
	}
	return g
}

// NumGroups returns the number of groups.
func (r *Result) NumGroups() int { return len(r.groups) }

// Merge folds a partial result into r. Both must come from the same query.
func (r *Result) Merge(o *Result) {
	if o == nil {
		return
	}
	for ks, og := range o.groups {
		g, ok := r.groups[ks]
		if !ok {
			r.groups[ks] = og
			continue
		}
		for i := range g.Aggs {
			if i < len(og.Aggs) {
				g.Aggs[i].Merge(og.Aggs[i])
			}
		}
	}
	r.RowsScanned += o.RowsScanned
	r.BlocksScanned += o.BlocksScanned
	r.BlocksSkipped += o.BlocksSkipped
	r.BlocksPruned += o.BlocksPruned
	r.LeavesTotal += o.LeavesTotal
	r.LeavesAnswered += o.LeavesAnswered
	r.ShardsTotal += o.ShardsTotal
	r.ShardsAnswered += o.ShardsAnswered
	r.Phases.Add(o.Phases)
	r.CacheHits += o.CacheHits
	r.CacheMisses += o.CacheMisses
}

// ExecStats builds the execution report for r, one leaf's partial or a
// subtree's merge of them: the one place a result's phase times and work
// counters become the report a traced response carries. shards is how many
// shards of the table the answer covers (0 = the whole logical table).
func (r *Result) ExecStats(spanID uint64, table, recovery string, latency time.Duration, shards int) *obs.ExecStats {
	return &obs.ExecStats{
		SpanID:        spanID,
		Table:         table,
		Recovery:      recovery,
		LatencyNanos:  latency.Nanoseconds(),
		DecodeNanos:   r.Phases.DecodeNanos,
		PruneNanos:    r.Phases.PruneNanos,
		ScanNanos:     r.Phases.ScanNanos,
		MergeNanos:    r.Phases.MergeNanos,
		RowsScanned:   r.RowsScanned,
		BlocksScanned: r.BlocksScanned,
		BlocksPruned:  r.BlocksPruned,
		BlocksSkipped: r.BlocksSkipped,
		CacheHits:     r.CacheHits,
		CacheMisses:   r.CacheMisses,
		ShardsServed:  shards,
	}
}

// Coverage returns the fraction of leaves that answered (1.0 when the
// aggregator did not fill leaf counts). Users see gradually increasing
// partial results while servers recover (§4.1).
func (r *Result) Coverage() float64 {
	if r.LeavesTotal == 0 {
		return 1
	}
	return float64(r.LeavesAnswered) / float64(r.LeavesTotal)
}

// ShardCoverage returns the fraction of shards served (1.0 when the
// aggregator did not route by shard). This is the availability number the
// rollover dashboard tracks: with R-way replication it holds at 1.0 through
// a restart batch, and its floor is 1 - BatchFraction when no replica of a
// drained shard is live.
func (r *Result) ShardCoverage() float64 {
	if r.ShardsTotal == 0 {
		return 1
	}
	return float64(r.ShardsAnswered) / float64(r.ShardsTotal)
}

// WireResult is the serializable form of a Result, used by the wire
// protocol between aggregators and leaves. AggState accumulators travel
// whole so the aggregator can merge partial results exactly.
type WireResult struct {
	Groups         []WireGroup
	RowsScanned    int64
	BlocksScanned  int64
	BlocksSkipped  int64
	BlocksPruned   int64
	LeavesTotal    int
	LeavesAnswered int
	// Shard coverage (v2-additive like the trace fields below; zero on
	// unsharded deployments and pre-shard peers).
	ShardsTotal    int
	ShardsAnswered int
	// Phase timings and cache counters travel with the result so the
	// aggregator can build a per-leaf trace span without a second RPC. Gob
	// omits zero values, so pre-trace peers interoperate transparently.
	Phases      PhaseTimes
	CacheHits   int64
	CacheMisses int64
}

// WireGroup is one serialized group.
type WireGroup struct {
	Key  []string
	Aggs []*AggState
}

// Export converts a Result for the wire.
func (r *Result) Export() *WireResult {
	w := &WireResult{
		RowsScanned:    r.RowsScanned,
		BlocksScanned:  r.BlocksScanned,
		BlocksSkipped:  r.BlocksSkipped,
		BlocksPruned:   r.BlocksPruned,
		LeavesTotal:    r.LeavesTotal,
		LeavesAnswered: r.LeavesAnswered,
		ShardsTotal:    r.ShardsTotal,
		ShardsAnswered: r.ShardsAnswered,
		Phases:         r.Phases,
		CacheHits:      r.CacheHits,
		CacheMisses:    r.CacheMisses,
	}
	for _, g := range r.groups {
		w.Groups = append(w.Groups, WireGroup{Key: g.Key, Aggs: g.Aggs})
	}
	return w
}

// Import rebuilds a Result from its wire form.
func Import(w *WireResult) *Result {
	r := NewResult()
	r.RowsScanned = w.RowsScanned
	r.BlocksScanned = w.BlocksScanned
	r.BlocksSkipped = w.BlocksSkipped
	r.BlocksPruned = w.BlocksPruned
	r.LeavesTotal = w.LeavesTotal
	r.LeavesAnswered = w.LeavesAnswered
	r.ShardsTotal = w.ShardsTotal
	r.ShardsAnswered = w.ShardsAnswered
	r.Phases = w.Phases
	r.CacheHits = w.CacheHits
	r.CacheMisses = w.CacheMisses
	for _, g := range w.Groups {
		r.groups[keyString(g.Key)] = &Group{Key: g.Key, Aggs: g.Aggs}
	}
	return r
}

// Row is one finalized output row.
type Row struct {
	Key    []string
	Values []float64
}

// Rows finalizes the result. Default order is descending count (then key,
// for determinism); q.OrderBy sorts by a chosen aggregation value instead,
// and a time-bucketed query comes back in bucket order first so callers can
// render the series directly. The list is trimmed to q.Limit.
func (r *Result) Rows(q *Query) []Row {
	groups := make([]*Group, 0, len(r.groups))
	for _, g := range r.groups {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool {
		gi, gj := groups[i], groups[j]
		if q.TimeBucketSeconds > 0 {
			bi, _ := strconv.ParseInt(gi.Key[0], 10, 64)
			bj, _ := strconv.ParseInt(gj.Key[0], 10, 64)
			if bi != bj {
				return bi < bj
			}
		}
		if q.OrderBy != nil && q.OrderBy.Agg < len(gi.Aggs) && q.OrderBy.Agg < len(gj.Aggs) {
			op := q.Aggregations[q.OrderBy.Agg].Op
			vi := gi.Aggs[q.OrderBy.Agg].Value(op)
			vj := gj.Aggs[q.OrderBy.Agg].Value(op)
			if vi != vj {
				if q.OrderBy.Asc {
					return vi < vj
				}
				return vi > vj
			}
		} else if ci, cj := groupCount(gi), groupCount(gj); ci != cj {
			return ci > cj
		}
		return keyString(gi.Key) < keyString(gj.Key)
	})
	if q.Limit > 0 && len(groups) > q.Limit {
		groups = groups[:q.Limit]
	}
	out := make([]Row, len(groups))
	for i, g := range groups {
		vals := make([]float64, len(q.Aggregations))
		for j, a := range q.Aggregations {
			if j < len(g.Aggs) {
				vals[j] = g.Aggs[j].Value(a.Op)
			}
		}
		out[i] = Row{Key: g.Key, Values: vals}
	}
	return out
}

func groupCount(g *Group) int64 {
	if len(g.Aggs) == 0 {
		return 0
	}
	return g.Aggs[0].Count
}

// Format renders rows as an aligned text table for CLIs and examples.
func Format(q *Query, rows []Row) string {
	var b strings.Builder
	if q.TimeBucketSeconds > 0 {
		fmt.Fprintf(&b, "%-20s", "time_bucket")
	}
	for _, col := range q.GroupBy {
		fmt.Fprintf(&b, "%-20s", col)
	}
	for _, a := range q.Aggregations {
		fmt.Fprintf(&b, "%16s", a.String())
	}
	b.WriteString("\n")
	for _, row := range rows {
		for _, k := range row.Key {
			fmt.Fprintf(&b, "%-20s", k)
		}
		for _, v := range row.Values {
			fmt.Fprintf(&b, "%16.3f", v)
		}
		b.WriteString("\n")
	}
	return b.String()
}
