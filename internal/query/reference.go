package query

import (
	"fmt"
	"strconv"

	"scuba/internal/layout"
	"scuba/internal/rowblock"
)

// Reference answers q over raw rows the slow, obvious way: one row at a
// time, every predicate on the row's own cells — no blocks, no time-header
// or zone-map pruning, no decode cache, no workers. It is the oracle the
// executor is checked against (FuzzZoneMapPrune, TestOneQueryPath), so it
// shares nothing with the scan but the Result it fills in; the work counters
// of that Result stay zero, because they count blocks.
//
// A column has the type of the first row that carries it (ingest rejects a
// conflict); a row without the cell reads that type's zero, and a column no
// row carries is absent: a filter tests its own operand's zero, a group key
// is "", an aggregate observes 0. That is the executor's answer whenever a
// column is in every block or in none; what one block lacking a column does
// is partial_schema_test's subject, not the reference's.
//
// An error comes back under the executor's condition: some row in the time
// range survives the filters before the ill-typed one, or reaches an
// ill-typed group-by or aggregate.
func Reference(rows []rowblock.Row, q *Query) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	types := make(map[string]layout.ValueType)
	for _, r := range rows {
		for name, v := range r.Cols {
			if _, ok := types[name]; !ok {
				types[name] = v.Type
			}
		}
	}
	// cell reads r's value of a column; ok is false for an absent column.
	cell := func(r rowblock.Row, name string) (rowblock.Value, bool) {
		if v, carried := r.Cols[name]; carried {
			return v, true
		}
		vt, ok := types[name]
		return rowblock.Value{Type: vt}, ok
	}

	var (
		groups []Group
		index  = make(map[string]int) // quoted key tuple → its group
	)
rows:
	for _, r := range rows {
		if r.Time < q.From || r.Time > q.To {
			continue
		}
		for _, f := range q.Filters {
			v, ok := cell(r, f.Column)
			match, err := refMatches(v, ok, f)
			if err != nil {
				return nil, err
			}
			if !match {
				continue rows
			}
		}
		var key []string
		if b := q.TimeBucketSeconds; b > 0 {
			floor := r.Time - ((r.Time%b)+b)%b
			key = append(key, strconv.FormatInt(floor, 10))
		}
		for _, name := range q.GroupBy {
			v, ok := cell(r, name)
			s, err := refString(v, ok, name)
			if err != nil {
				return nil, err
			}
			key = append(key, s)
		}
		quoted := fmt.Sprintf("%q", key)
		gi, ok := index[quoted]
		if !ok {
			gi, index[quoted] = len(groups), len(groups)
			aggs := make([]AggState, len(q.Aggregations))
			for ai, a := range q.Aggregations {
				aggs[ai] = newAggState(a.Op)
			}
			groups = append(groups, Group{Key: key, Aggs: aggs})
		}
		g := &groups[gi]
		for ai, a := range q.Aggregations {
			v, ok := cell(r, a.Column)
			switch {
			case a.Op == AggCountDistinct:
				s, err := refString(v, ok, a.Column)
				if err != nil {
					return nil, err
				}
				g.Aggs[ai].ObserveDistinct(s)
			case a.Op == AggCount || !ok:
				g.Aggs[ai].Observe(0)
			case v.Type == layout.TypeInt64 || v.Type == layout.TypeTime:
				g.Aggs[ai].Observe(float64(v.Int))
			case v.Type == layout.TypeFloat64:
				g.Aggs[ai].Observe(v.Float)
			default:
				return nil, fmt.Errorf("query: cannot aggregate column %q of type %v", a.Column, v.Type)
			}
		}
	}
	res := &Result{Groups: groups}
	res.SortGroups()
	return res, nil
}

// refMatches evaluates one filter against one cell.
func refMatches(v rowblock.Value, present bool, f Filter) (bool, error) {
	contains := f.Op == OpContains
	switch {
	case !present:
		// No type to go by: compare the zero of whichever operand is set.
		switch {
		case contains:
			return false, nil
		case f.Str != "":
			return refCompare("", f.Str, f.Op), nil
		case f.Float != 0:
			return refCompare(0, f.Float, f.Op), nil
		default:
			return refCompare(0, f.Int, f.Op), nil
		}
	case v.Type == layout.TypeStringSet && contains:
		for _, s := range v.Set {
			if s == f.Str {
				return true, nil
			}
		}
		return false, nil
	case v.Type == layout.TypeStringSet || contains:
		return false, fmt.Errorf("query: %v on column %q of type %v", f.Op, f.Column, v.Type)
	case v.Type == layout.TypeFloat64:
		return refCompare(v.Float, f.Float, f.Op), nil
	case v.Type == layout.TypeString:
		return refCompare(v.Str, f.Str, f.Op), nil
	default:
		return refCompare(v.Int, f.Int, f.Op), nil
	}
}

func refCompare[T int64 | float64 | string](a, b T, op CompareOp) bool {
	switch op {
	case OpEq:
		return a == b
	case OpNe:
		return a != b
	case OpLt:
		return a < b
	case OpLe:
		return a <= b
	case OpGt:
		return a > b
	case OpGe:
		return a >= b
	default:
		return false
	}
}

// refString renders a cell as a group key or a count-distinct value.
func refString(v rowblock.Value, present bool, name string) (string, error) {
	switch {
	case !present:
		return "", nil
	case v.Type == layout.TypeString:
		return v.Str, nil
	case v.Type == layout.TypeFloat64:
		return strconv.FormatFloat(v.Float, 'g', -1, 64), nil
	case v.Type == layout.TypeStringSet:
		return "", fmt.Errorf("query: cannot stringify column %q of type %v", name, v.Type)
	default:
		return strconv.FormatInt(v.Int, 10), nil
	}
}
