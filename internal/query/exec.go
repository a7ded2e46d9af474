package query

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"scuba/internal/column"
	"scuba/internal/metrics"
	"scuba/internal/rowblock"
	"scuba/internal/table"
)

// Block is the executor's view of a batch of rows: a sealed row block or an
// unsealed builder snapshot.
type Block interface {
	Rows() int
	Times() ([]int64, error)
	HasColumn(name string) bool
	DecodeColumn(name string) (column.Column, error)
}

var (
	_ Block = (*rowblock.RowBlock)(nil)
	_ Block = (*rowblock.UnsealedView)(nil)
)

// ExecOptions tune one execution. The zero value sizes the scan pool to
// GOMAXPROCS with no cross-query cache and no metrics.
type ExecOptions struct {
	// Workers bounds the sealed-block scan pool. 0 or negative means
	// GOMAXPROCS; 1 scans serially on the calling goroutine.
	Workers int
	// Cache, when non-nil, holds decoded columns across queries (shared by
	// every query against the same table; safe for concurrent use).
	Cache *DecodeCache
	// Metrics, when non-nil, receives the per-query execution latency — the
	// query.exec.latency timer and query.exec.latency_hist histogram — plus
	// the query.exec.count, query.exec.errors and query.blocks_pruned
	// counters. The names carry the "exec." infix so a daemon sharing one
	// registry between its wire server (which times whole RPCs as
	// query.latency) and its leaf never double-counts.
	Metrics *metrics.Registry
}

// Execute runs a query over one leaf's copy of a table, producing a partial
// result: the one entry every table execution takes. Sealed blocks outside
// the time range are skipped via their min/max headers without decoding
// anything (§2.1), blocks whose zone maps exclude a filter are pruned without
// decode, and the survivors are fanned over a bounded worker pool, each
// worker folding into a private Result that is merged at the end (the
// cross-leaf merge is associative and commutative, so block order doesn't
// matter). Unsealed rows are scanned in-line through a snapshot taken
// together with the sealed-block list, so every row applied before the query
// is in exactly one of the two.
func Execute(tbl *table.Table, q *Query, opts ExecOptions) (*Result, error) {
	start := time.Now()
	res, err := execute(tbl, q, opts)
	if reg := opts.Metrics; reg != nil {
		reg.Counter("query.exec.count").Add(1)
		if err != nil {
			reg.Counter("query.exec.errors").Add(1)
		} else {
			d := time.Since(start)
			reg.Timer("query.exec.latency").Observe(d)
			reg.Histogram("query.exec.latency_hist").ObserveDuration(d)
			reg.Counter("query.blocks_pruned").Add(res.BlocksPruned)
		}
	}
	return res, err
}

func execute(tbl *table.Table, q *Query, opts ExecOptions) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	res := NewResult()
	// The whole scan runs inside the table's query gate: shutdown waits for
	// in-flight queries before releasing block columns, so workers must not
	// outlive the gate.
	err := tbl.ScanView(q.From, q.To, func(v table.View) error {
		if err := scanSealed(v.Blocks, q, res, opts); err != nil {
			return err
		}
		res.BlocksSkipped = int64(v.NumBlocks) - res.BlocksScanned - res.BlocksPruned
		if v.Active != nil && v.Active.Overlaps(q.From, q.To) {
			if err := scanBlock(v.Active, q, res, nil); err != nil {
				return err
			}
			res.BlocksScanned-- // the unsealed tail is not a sealed block
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// scanSealed folds the sealed-block snapshot into res, in parallel when the
// pool and the block count warrant it.
func scanSealed(blocks []*rowblock.RowBlock, q *Query, res *Result, opts ExecOptions) error {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(blocks) {
		workers = len(blocks)
	}
	if workers <= 1 {
		for _, rb := range blocks {
			if err := scanBlock(rb, q, res, opts.Cache); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next    atomic.Int64
		stop    atomic.Bool
		wg      sync.WaitGroup
		partial = make([]*Result, workers)
		errs    = make([]error, workers)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			part := NewResult()
			partial[w] = part
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(blocks) {
					return
				}
				if err := scanBlock(blocks[i], q, part, opts.Cache); err != nil {
					errs[w] = err
					stop.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	mergeStart := time.Now()
	for _, part := range partial {
		res.Merge(part)
	}
	res.Phases.MergeNanos += time.Since(mergeStart).Nanoseconds()
	return nil
}

// scanBlock folds one block into a result, consulting zone maps to skip the
// block outright and the decode cache for column reuse across queries. Each
// phase's time lands in res.Phases: the zone-map test as prune, column
// materialization as decode, and the remaining per-row work as scan. The
// accounting costs a handful of clock reads per block (and two per decoded
// column), which is noise against even a pruned block's work.
func scanBlock(rb Block, q *Query, res *Result, dc *DecodeCache) error {
	pruneStart := time.Now()
	pruned := blockPruned(rb, q)
	scanStart := time.Now()
	res.Phases.PruneNanos += scanStart.Sub(pruneStart).Nanoseconds()
	if pruned {
		res.BlocksPruned++
		return nil
	}
	decodeBefore := res.Phases.DecodeNanos
	err := scanBlockRows(rb, q, res, dc)
	// Scan time is the block's wall time minus what the decode closure
	// already attributed to decode.
	res.Phases.ScanNanos += time.Since(scanStart).Nanoseconds() - (res.Phases.DecodeNanos - decodeBefore)
	return err
}

// scanBlockRows is scanBlock after the prune decision: decode what the query
// needs and fold every live row in.
func scanBlockRows(rb Block, q *Query, res *Result, dc *DecodeCache) error {
	res.BlocksScanned++
	n := rb.Rows()
	res.RowsScanned += int64(n)

	// trackCache mirrors the registry accounting inside dc.Get: only sealed
	// blocks are cacheable, so per-result hit/miss counts stay comparable to
	// the leaf's query.decode_cache.* counters.
	trackCache := dc != nil && cacheable(rb)
	cache := make(map[string]column.Column)
	decode := func(name string) (column.Column, error) {
		if c, ok := cache[name]; ok {
			return c, nil
		}
		if !rb.HasColumn(name) {
			cache[name] = nil // column absent from this block: zero values
			return nil, nil
		}
		start := time.Now()
		if c, ok := dc.Get(rb, name); ok {
			res.Phases.DecodeNanos += time.Since(start).Nanoseconds()
			if trackCache {
				res.CacheHits++
			}
			cache[name] = c
			return c, nil
		}
		if trackCache {
			res.CacheMisses++
		}
		c, err := rb.DecodeColumn(name)
		if err != nil {
			res.Phases.DecodeNanos += time.Since(start).Nanoseconds()
			return nil, err
		}
		cache[name] = c
		dc.Put(rb, name, c)
		res.Phases.DecodeNanos += time.Since(start).Nanoseconds()
		return c, nil
	}

	// Row mask from the time predicate.
	times, err := rb.Times()
	if err != nil {
		return err
	}
	mask := make([]bool, n)
	live := 0
	for i, t := range times {
		if t >= q.From && t <= q.To {
			mask[i] = true
			live++
		}
	}

	// Filters narrow the mask.
	for _, f := range q.Filters {
		if live == 0 {
			return nil
		}
		col, err := decode(f.Column)
		if err != nil {
			return err
		}
		live, err = applyFilter(mask, live, col, f)
		if err != nil {
			return err
		}
	}
	if live == 0 {
		return nil
	}

	// Group keys.
	keys, err := groupKeys(q, n, times, decode)
	if err != nil {
		return err
	}

	// Aggregation inputs: numeric values for arithmetic ops, stringified
	// values for count-distinct.
	aggVals := make([][]float64, len(q.Aggregations))
	distinctGet := make([]func(int) string, len(q.Aggregations))
	for ai, a := range q.Aggregations {
		if !a.Op.needsColumn() {
			continue
		}
		col, err := decode(a.Column)
		if err != nil {
			return err
		}
		if a.Op == AggCountDistinct {
			get, err := stringGetter(col, a.Column)
			if err != nil {
				return err
			}
			distinctGet[ai] = get
			continue
		}
		vals, err := numericValues(col, n, a.Column)
		if err != nil {
			return err
		}
		aggVals[ai] = vals
	}

	for i := 0; i < n; i++ {
		if !mask[i] {
			continue
		}
		g := res.group(keys(i), q)
		for ai := range q.Aggregations {
			switch {
			case distinctGet[ai] != nil:
				g.Aggs[ai].ObserveDistinct(distinctGet[ai](i))
			case aggVals[ai] == nil:
				g.Aggs[ai].Observe(0) // count, or absent column -> zero
			default:
				g.Aggs[ai].Observe(aggVals[ai][i])
			}
		}
	}
	return nil
}

// stringGetter returns a per-row stringified accessor for group-by keys and
// count-distinct values.
func stringGetter(col column.Column, name string) (func(int) string, error) {
	switch c := col.(type) {
	case nil:
		return func(int) string { return "" }, nil
	case *column.Int64Column:
		return func(i int) string { return strconv.FormatInt(c.Values[i], 10) }, nil
	case *column.Float64Column:
		return func(i int) string { return strconv.FormatFloat(c.Values[i], 'g', -1, 64) }, nil
	case *column.StringColumn:
		return c.Value, nil
	default:
		return nil, fmt.Errorf("query: cannot stringify column %q of type %v", name, col.Type())
	}
}

// bucketStart floors t to its bucket's start (correct for negative times).
func bucketStart(t, bucket int64) int64 {
	b := t / bucket
	if t%bucket != 0 && t < 0 {
		b--
	}
	return b * bucket
}

// groupKeys returns a function producing the group key for row i. A time
// bucket, when requested, is the leading key component.
func groupKeys(q *Query, n int, times []int64, decode func(string) (column.Column, error)) (func(int) []string, error) {
	var getters []func(int) string
	if q.TimeBucketSeconds > 0 {
		bucket := q.TimeBucketSeconds
		getters = append(getters, func(i int) string {
			return strconv.FormatInt(bucketStart(times[i], bucket), 10)
		})
	}
	if len(q.GroupBy) == 0 && len(getters) == 0 {
		empty := []string{}
		return func(int) []string { return empty }, nil
	}
	colGetters := make([]func(int) string, len(q.GroupBy))
	for gi, name := range q.GroupBy {
		col, err := decode(name)
		if err != nil {
			return nil, err
		}
		get, err := stringGetter(col, name)
		if err != nil {
			return nil, fmt.Errorf("query: cannot group by column %q of type %v", name, col.Type())
		}
		colGetters[gi] = get
	}
	getters = append(getters, colGetters...)
	buf := make([]string, len(getters))
	return func(i int) []string {
		for gi, get := range getters {
			buf[gi] = get(i)
		}
		return buf
	}, nil
}

// numericValues extracts float64 values for aggregation.
func numericValues(col column.Column, n int, name string) ([]float64, error) {
	switch c := col.(type) {
	case nil:
		return nil, nil // absent column: zeros
	case *column.Int64Column:
		out := make([]float64, len(c.Values))
		for i, v := range c.Values {
			out[i] = float64(v)
		}
		return out, nil
	case *column.Float64Column:
		return c.Values, nil
	default:
		return nil, fmt.Errorf("query: cannot aggregate column %q of type %v", name, col.Type())
	}
}

// applyFilter narrows the mask in place and returns the surviving count.
func applyFilter(mask []bool, live int, col column.Column, f Filter) (int, error) {
	switch c := col.(type) {
	case nil:
		// Absent column: evaluate the predicate once against the type's
		// zero value, inferred from the filter's operand.
		keep, err := zeroValueMatches(f)
		if err != nil {
			return 0, err
		}
		if keep {
			return live, nil
		}
		for i := range mask {
			mask[i] = false
		}
		return 0, nil
	case *column.Int64Column:
		if f.Op == OpContains {
			return 0, fmt.Errorf("query: contains on integer column %q", f.Column)
		}
		for i, v := range c.Values {
			if mask[i] && !cmpInt(v, f.Int, f.Op) {
				mask[i] = false
				live--
			}
		}
		return live, nil
	case *column.Float64Column:
		if f.Op == OpContains {
			return 0, fmt.Errorf("query: contains on float column %q", f.Column)
		}
		for i, v := range c.Values {
			if mask[i] && !cmpFloat(v, f.Float, f.Op) {
				mask[i] = false
				live--
			}
		}
		return live, nil
	case *column.StringColumn:
		if f.Op == OpContains {
			return 0, fmt.Errorf("query: contains on string column %q (use =)", f.Column)
		}
		// Evaluate once per dictionary entry, then test IDs per row — the
		// payoff of dictionary encoding at query time.
		match := make([]bool, len(c.Dict))
		for id, s := range c.Dict {
			match[id] = cmpString(s, f.Str, f.Op)
		}
		for i, id := range c.IDs {
			if mask[i] && !match[id] {
				mask[i] = false
				live--
			}
		}
		return live, nil
	case *column.StringSetColumn:
		switch f.Op {
		case OpContains:
			target := -1
			for id, s := range c.Dict {
				if s == f.Str {
					target = id
					break
				}
			}
			for i := range c.Rows {
				if !mask[i] {
					continue
				}
				found := false
				if target >= 0 {
					for _, id := range c.Rows[i] {
						if int(id) == target {
							found = true
							break
						}
					}
				}
				if !found {
					mask[i] = false
					live--
				}
			}
			return live, nil
		default:
			return 0, fmt.Errorf("query: %v on string-set column %q (only contains)", f.Op, f.Column)
		}
	default:
		return 0, fmt.Errorf("query: unsupported column type %v", col.Type())
	}
}

func zeroValueMatches(f Filter) (bool, error) {
	switch f.Op {
	case OpContains:
		return false, nil // empty set contains nothing
	default:
	}
	// Prefer the operand that is set; ambiguous zero operands are fine
	// because every interpretation agrees (0 == 0, "" == "").
	if f.Str != "" {
		return cmpString("", f.Str, f.Op), nil
	}
	if f.Float != 0 {
		return cmpFloat(0, f.Float, f.Op), nil
	}
	if f.Int != 0 {
		return cmpInt(0, f.Int, f.Op), nil
	}
	// All-zero operand: "" vs "" and 0 vs 0 behave identically under every
	// operator except string/number ordering edge cases, which also agree.
	return cmpInt(0, 0, f.Op), nil
}

func cmpInt(a, b int64, op CompareOp) bool {
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

func cmpFloat(a, b float64, op CompareOp) bool {
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

func cmpString(a, b string, op CompareOp) bool {
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
