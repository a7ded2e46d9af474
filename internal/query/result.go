package query

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"scuba/internal/obs"
)

// AggState is the mergeable accumulator behind one aggregation output. Count
// is the group's rows, whatever the op. Of the rest, Value reads one field
// per op: Sum for sum and avg, Min for min, Max for max, Hist for the
// percentiles, Distinct for count-distinct. A scan fills only that one and
// leaves the others at their identity — Sum 0, Min +Inf, Max -Inf, which
// Merge leaves the other side's value under — so a state that fills every
// field, as Observe and a peer before the per-op scan do, merges with it to
// the same answer.
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
func newAggState(op AggOp) AggState {
	st := AggState{Min: math.Inf(1), Max: math.Inf(-1)}
	switch {
	case op.percentile():
		st.Hist = &Histogram{}
	case op == AggCountDistinct:
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
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Min < s.Min {
		s.Min = o.Min
	}
	if o.Max > s.Max {
		s.Max = o.Max
	}
	if s.Hist != nil { // both or neither: they are one aggregation's
		s.Hist.Merge(o.Hist)
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
	Aggs []AggState
}

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

// Result is a (possibly partial) query result: the scan hands one over, the
// result frame (frame.go) carries it as it is, and the aggregator merges what
// arrives. Merging partial results from many leaves is associative and
// commutative.
type Result struct {
	// Groups is sorted by key tuple and holds no key twice: Merge relies on
	// it and keeps it, SortGroups establishes it.
	Groups []Group
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

// keyParts is how many parts a group key of q's has: the time bucket, when
// there is one, then the group-by columns.
func (q *Query) keyParts() int {
	if q.TimeBucketSeconds > 0 {
		return 1 + len(q.GroupBy)
	}
	return len(q.GroupBy)
}

// compareKeys orders key tuples, part by part: the order of Result.Groups.
func compareKeys(a, b []string) int { return slices.CompareFunc(a, b, strings.Compare) }

// SortGroups puts Groups in key-tuple order and folds groups of one key into
// one. Over groups already in order, which is what a current peer sends, it
// is two passes and no sort; an older peer's arrive in map order.
func (r *Result) SortGroups() {
	byKey := func(a, b Group) int { return compareKeys(a.Key, b.Key) }
	if !slices.IsSortedFunc(r.Groups, byKey) {
		slices.SortFunc(r.Groups, byKey)
	}
	out := r.Groups[:min(1, len(r.Groups))]
	for _, g := range r.Groups[len(out):] {
		if last := &out[len(out)-1]; compareKeys(last.Key, g.Key) == 0 {
			last.merge(g)
		} else {
			out = append(out, g)
		}
	}
	r.Groups = out
}

// Validate reports why r cannot be q's answer: Rows and Merge index a
// group's key and accumulators by q's shape, and a percentile reads its
// histogram. A result from outside the process is checked once, on arrival;
// a reply that carries none is no answer either.
func (r *Result) Validate(q *Query) error {
	if r == nil {
		return errors.New("query: no result")
	}
	arity := q.keyParts()
	for i, g := range r.Groups {
		if len(g.Key) != arity || len(g.Aggs) != len(q.Aggregations) {
			return fmt.Errorf("query: result group %d has %d key parts and %d accumulators, the query %d and %d",
				i, len(g.Key), len(g.Aggs), arity, len(q.Aggregations))
		}
		for ai, a := range q.Aggregations {
			if a.Op.percentile() && g.Aggs[ai].Hist == nil {
				return fmt.Errorf("query: result group %d has no histogram for %v", i, a)
			}
		}
	}
	return nil
}

// merge folds another group of the same key in.
func (g *Group) merge(o Group) {
	for i := range min(len(g.Aggs), len(o.Aggs)) {
		g.Aggs[i].Merge(&o.Aggs[i])
	}
}

// Merge folds a partial result into r. Both must come from the same query.
// It is the one merge: scan workers' partials, a leaf's shards and an
// aggregator's leaves all meet here, as two sorted runs. r takes o's groups
// over rather than copying them.
func (r *Result) Merge(o *Result) {
	if o == nil {
		return
	}
	r.Groups = mergeGroups(r.Groups, o.Groups)
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

// mergeGroups merges two sorted runs of groups into one.
func mergeGroups(a, b []Group) []Group {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	// Partials of one query mostly hold the same keys: room for the longer
	// run is usually all the room it takes.
	out := make([]Group, 0, max(len(a), len(b)))
	for len(a) > 0 && len(b) > 0 {
		switch c := compareKeys(a[0].Key, b[0].Key); {
		case c < 0:
			out, a = append(out, a[0]), a[1:]
		case c > 0:
			out, b = append(out, b[0]), b[1:]
		default:
			a[0].merge(b[0])
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
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
	// What a group is ranked by is worked out once per group, not per
	// comparison: the bucket is parsed text and a percentile walks a histogram.
	type ranked struct {
		g      *Group
		bucket int64
		value  float64
	}
	groups := make([]ranked, len(r.Groups))
	for i := range r.Groups {
		g := &r.Groups[i]
		k := ranked{g: g}
		if q.TimeBucketSeconds > 0 {
			k.bucket, _ = strconv.ParseInt(g.Key[0], 10, 64)
		}
		if by := q.OrderBy; by != nil && by.Agg < len(g.Aggs) {
			k.value = g.Aggs[by.Agg].Value(q.Aggregations[by.Agg].Op)
		} else if len(g.Aggs) > 0 {
			k.value = float64(g.Aggs[0].Count)
		}
		groups[i] = k
	}
	sign := -1 // descending
	if q.OrderBy != nil && q.OrderBy.Asc {
		sign = 1
	}
	slices.SortFunc(groups, func(a, b ranked) int {
		if c := cmp.Compare(a.bucket, b.bucket); c != 0 {
			return c
		}
		if c := cmp.Compare(a.value, b.value); c != 0 {
			return sign * c
		}
		return compareKeys(a.g.Key, b.g.Key)
	})
	if q.Limit > 0 && len(groups) > q.Limit {
		groups = groups[:q.Limit]
	}
	out := make([]Row, len(groups))
	na := len(q.Aggregations)
	slab := make([]float64, len(groups)*na) // every row's values, one allocation
	for i, k := range groups {
		vals := slab[i*na : (i+1)*na : (i+1)*na]
		for j := range min(len(vals), len(k.g.Aggs)) {
			vals[j] = k.g.Aggs[j].Value(q.Aggregations[j].Op)
		}
		out[i] = Row{Key: k.g.Key, Values: vals}
	}
	return out
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
