// Package query implements Scuba's query model: aggregation queries with a
// required time-range predicate, optional column filters, and group-by.
// Queries run per leaf over that leaf's row blocks — skipping blocks whose
// min/max time headers fall outside the range (§2.1) — and produce partial
// results that the aggregator merges (§2). Partial results are first-class:
// Scuba returns them whenever some leaves are unavailable (§1).
package query

import (
	"errors"
	"fmt"
	"strings"
)

// CompareOp is a filter comparison.
type CompareOp uint8

// Filter operators. OpContains applies to string-set columns.
const (
	OpEq CompareOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpContains
)

func (op CompareOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpContains:
		return "contains"
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

// Filter is one predicate on a column. Exactly one of the value fields is
// used, matching the column's type.
type Filter struct {
	Column string
	Op     CompareOp
	Int    int64
	Float  float64
	Str    string
}

// AggOp is an aggregation operator.
type AggOp uint8

// Aggregation operators. Percentiles use a mergeable log-scale histogram.
const (
	AggCount AggOp = iota
	AggSum
	AggMin
	AggMax
	AggAvg
	AggP50
	AggP90
	AggP99
	// AggCountDistinct counts distinct values of a column (exact, via a
	// mergeable set — "how many distinct hosts threw this error" is a
	// staple Scuba question).
	AggCountDistinct
)

func (op AggOp) String() string {
	switch op {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggAvg:
		return "avg"
	case AggP50:
		return "p50"
	case AggP90:
		return "p90"
	case AggP99:
		return "p99"
	case AggCountDistinct:
		return "count_distinct"
	default:
		return fmt.Sprintf("agg(%d)", uint8(op))
	}
}

// needsColumn reports whether the op reads a value column (count does not).
func (op AggOp) needsColumn() bool { return op != AggCount }

// percentile reports whether the op's accumulator keeps a histogram.
func (op AggOp) percentile() bool { return op == AggP50 || op == AggP90 || op == AggP99 }

// Aggregation names one output: an operator over a column.
type Aggregation struct {
	Op     AggOp
	Column string // empty for count
}

func (a Aggregation) String() string {
	if a.Column == "" {
		return a.Op.String()
	}
	return a.Op.String() + "(" + a.Column + ")"
}

// Order overrides the default result ordering (descending row count).
type Order struct {
	// Agg is the index into Aggregations whose finalized value orders the
	// groups.
	Agg int
	// Asc sorts ascending instead of descending.
	Asc bool
}

// Query is one aggregation query. From/To bound the required time column
// (inclusive); nearly all Scuba queries carry time predicates (§2.1).
type Query struct {
	Table        string
	From, To     int64
	Filters      []Filter
	Aggregations []Aggregation
	GroupBy      []string
	// TimeBucketSeconds, when positive, adds an implicit leading group-by
	// of floor(time/bucket)*bucket — the time-series view every Scuba
	// dashboard panel is built from. Series rows come back ordered by
	// bucket, then by the usual group order within a bucket.
	TimeBucketSeconds int64
	// OrderBy overrides the default ordering (descending count).
	OrderBy *Order
	// Limit caps the number of groups returned (0 = unlimited). Groups are
	// ordered by descending count so the cap keeps the heaviest hitters.
	Limit int
}

// Validate rejects structurally bad queries before execution.
func (q *Query) Validate() error {
	if q.Table == "" {
		return errors.New("query: table required")
	}
	if q.From > q.To {
		return fmt.Errorf("query: empty time range [%d, %d]", q.From, q.To)
	}
	if len(q.Aggregations) == 0 {
		return errors.New("query: at least one aggregation required")
	}
	for _, a := range q.Aggregations {
		if a.Op.needsColumn() && a.Column == "" {
			return fmt.Errorf("query: %v requires a column", a.Op)
		}
		if a.Op == AggCount && a.Column != "" {
			return errors.New("query: count takes no column")
		}
	}
	for _, g := range q.GroupBy {
		if g == "" {
			return errors.New("query: empty group-by column")
		}
	}
	if q.TimeBucketSeconds < 0 {
		return errors.New("query: negative time bucket")
	}
	if q.OrderBy != nil && (q.OrderBy.Agg < 0 || q.OrderBy.Agg >= len(q.Aggregations)) {
		return fmt.Errorf("query: order-by aggregation %d out of range", q.OrderBy.Agg)
	}
	if q.Limit < 0 {
		return errors.New("query: negative limit")
	}
	return nil
}

// String renders a query for logs and dashboards.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, a := range q.Aggregations {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
	fmt.Fprintf(&b, " FROM %s WHERE time IN [%d, %d]", q.Table, q.From, q.To)
	for _, f := range q.Filters {
		fmt.Fprintf(&b, " AND %s %v ...", f.Column, f.Op)
	}
	if len(q.GroupBy) > 0 {
		fmt.Fprintf(&b, " GROUP BY %s", strings.Join(q.GroupBy, ", "))
	}
	if q.Limit > 0 {
		fmt.Fprintf(&b, " LIMIT %d", q.Limit)
	}
	return b.String()
}
