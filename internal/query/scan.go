package query

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"time"

	"scuba/internal/column"
	"scuba/internal/rowblock"
)

// The block scan. A query is compiled once per execution into a plan (which
// columns it reads, in which role); each scan worker owns a scanner — the
// groups it has found so far plus the scratch one block needs — and folds
// blocks into it one at a time:
//
//	selection   the live rows as a vector of row numbers, narrowed in place by
//	            the time predicate (skipped, with the time column never
//	            decoded, when the block header lies inside the range) and by
//	            each filter in turn;
//	grouping    every live row's group-by tuple reduced to one small integer
//	            from dictionary IDs (strings) or value ranks (integers, time
//	            buckets, floats), and that integer mapped to a group through
//	            a per-block table — a key string is built once per group per
//	            block, from the first live row that shows the tuple; skipped
//	            when the query has one group;
//	aggregation one count per group, bumped per live row (with one group,
//	            the selection's length); then one typed pass per other
//	            aggregate over its column's values in place, in row order,
//	            into a column of only what its op reads (aggColumn) — with
//	            one group, a sum, min or max held in a register.
//
// Scratch is pooled across queries (scanners), so a query that touches one
// block allocates for its groups and nothing else.

// plan is a query compiled for the scan: every distinct column it reads gets
// a slot, and filters, group-by and aggregates name slots.
type plan struct {
	q       *Query
	cols    []string
	filters []int // slot per q.Filters entry
	groups  []int // slot per q.GroupBy entry
	aggs    []int // slot per q.Aggregations entry, -1 for count
	// single: no group-by and no time bucket, so every live row is in the one
	// group and nothing has to be worked out, or kept, per row.
	single bool
}

func compile(q *Query) *plan {
	p := &plan{q: q, single: len(q.GroupBy) == 0 && q.TimeBucketSeconds == 0}
	slot := func(name string) int {
		for i, c := range p.cols {
			if c == name {
				return i
			}
		}
		p.cols = append(p.cols, name)
		return len(p.cols) - 1
	}
	for _, f := range q.Filters {
		p.filters = append(p.filters, slot(f.Column))
	}
	for _, g := range q.GroupBy {
		p.groups = append(p.groups, slot(g))
	}
	for _, a := range q.Aggregations {
		if a.Op.needsColumn() {
			p.aggs = append(p.aggs, slot(a.Column))
		} else {
			p.aggs = append(p.aggs, -1)
		}
	}
	return p
}

// denseGroups bounds the per-block tuple → group table: tuples whose ID
// space is at most this large index it directly, larger spaces are first
// compacted to the tuples that occur (at most one per live row).
const denseGroups = 1 << 16

// scanner is one worker's state for one execution.
type scanner struct {
	p   *plan
	dc  *DecodeCache
	res *Result // work counters and phase times; finish adds the groups

	// The groups found so far, in order of first sight: joined keys → index,
	// each group's live rows, and per aggregation a column of accumulators.
	index   map[string]int32
	keys    [][]string
	count   []int64
	aggs    []aggColumn
	keySlab []string // slab the next group keys come from

	// Per-block state, reset by scanRows.
	cols   []column.Column // per plan slot, once loaded says so
	loaded []bool
	gcols  []column.Column // per group-by entry

	// Scratch, kept across blocks and (through the pool) across queries.
	times  []int64
	all    []uint32 // 0, 1, 2, ...: the selection that holds every row
	sel    []uint32
	acc    []uint32   // per live row: tuple ID while folding, then its group
	ids    []uint32   // per live row: one component's IDs
	ints   []int64    // per live row: one integer-like component's values, or zeros
	tuples []int32    // tuple ID → group, -1 until a live row shows the tuple
	dicts  [][]string // the dictionaries the tuple IDs were last made of
	match  []bool     // per dictionary entry: does it pass the filter
	seen   []uint64   // (group, dictionary ID) pairs a count-distinct has marked
	ranks  map[int64]uint32
	pairs  map[uint64]uint32
	key    []string
	text   []byte
}

// aggColumn is one aggregation's accumulators, one per group, holding only
// what AggState.Value reads for its op: nothing for a count (the scanner's
// count is its answer), the sums of a sum or avg, the mins of a min, the maxs
// of a max, a percentile's bucket table, a count-distinct's sets.
type aggColumn struct {
	vals []float64
	hist flatHist
	sets []map[string]bool
}

// add gives a new group the op's empty accumulator.
func (c *aggColumn) add(op AggOp) {
	switch {
	case op == AggSum || op == AggAvg:
		c.vals = append(c.vals, 0)
	case op == AggMin:
		c.vals = append(c.vals, math.Inf(1))
	case op == AggMax:
		c.vals = append(c.vals, math.Inf(-1))
	case op.percentile():
		c.hist.counts = append(c.hist.counts, make([]int64, c.hist.width)...)
	case op == AggCountDistinct:
		c.sets = append(c.sets, make(map[string]bool))
	}
}

// state is group g's AggState, the fields its op does not read at identity.
func (c *aggColumn) state(op AggOp, g int32, count int64) AggState {
	st := AggState{Count: count, Min: math.Inf(1), Max: math.Inf(-1)}
	switch {
	case op == AggSum || op == AggAvg:
		st.Sum = c.vals[g]
	case op == AggMin:
		st.Min = c.vals[g]
	case op == AggMax:
		st.Max = c.vals[g]
	case op == AggCountDistinct:
		st.Distinct = c.sets[g]
	}
	return st
}

var scanners = sync.Pool{New: func() any { return &scanner{index: make(map[string]int32)} }}

func newScanner(p *plan, dc *DecodeCache) *scanner {
	s := scanners.Get().(*scanner)
	s.p, s.dc, s.res = p, dc, &Result{}
	s.aggs = make([]aggColumn, len(p.aggs))
	return s
}

// release returns the scanner's scratch to the pool. What finish handed out
// (keys, accumulators) belongs to the result by now and is let go of.
func (s *scanner) release() {
	s.p, s.dc, s.res = nil, nil, nil
	clear(s.index)
	s.keys, s.count, s.aggs, s.keySlab = nil, nil, nil, nil
	clear(s.cols)
	clear(s.gcols)
	clear(s.dicts)
	s.tuples = s.tuples[:0] // the next query's first block starts a table
	scanners.Put(s)
}

// finish hands the groups over in the scanner's result, in key order: the
// order is settled on group numbers and the ranks of their key parts (nothing
// but integers moves, and nothing is compared), then each group's
// accumulators are assembled from its count and the per-aggregation columns
// the kernels fold into; a percentile's histograms are cut from its table.
func (s *scanner) finish() *Result {
	res, na, nk := s.res, len(s.aggs), s.p.q.keyParts()
	dicts, ranks := rankKeys(len(s.keys), nk, func(g int) []string { return s.keys[g] })
	order, next := make([]int32, len(s.keys)), make([]int32, len(s.keys))
	for g := range order {
		order[g] = int32(g)
	}
	// Ranks are dense, so a counting sort per key position, the last first,
	// leaves the groups in tuple order.
	var starts []int32
	for p := nk - 1; p >= 0; p-- {
		starts = grow(starts, len(dicts[p])+1)
		clear(starts)
		for g := range order {
			starts[ranks[g*nk+p]+1]++
		}
		for r := 1; r < len(starts); r++ {
			starts[r] += starts[r-1]
		}
		for _, g := range order {
			r := ranks[int(g)*nk+p]
			next[starts[r]] = g
			starts[r]++
		}
		order, next = next, order
	}
	res.Groups = make([]Group, len(order))
	states := make([]AggState, len(order)*na)
	for ai, a := range s.p.q.Aggregations {
		var hists []Histogram
		if a.Op.percentile() {
			hists = make([]Histogram, len(order))
		}
		for i, g := range order {
			st := &states[i*na+ai]
			*st = s.aggs[ai].state(a.Op, g, s.count[g])
			if hists != nil {
				hists[i] = s.aggs[ai].hist.cut(int(g))
				st.Hist = &hists[i]
			}
		}
	}
	for i, g := range order {
		res.Groups[i] = Group{Key: s.keys[g], Aggs: states[i*na : (i+1)*na : (i+1)*na]}
	}
	return res
}

// keySep joins a key tuple's parts in the scanner's index of its groups.
const keySep = "\x00"

// group returns the index of the group with the key in s.key, adding it.
func (s *scanner) group() int32 {
	s.text = s.text[:0]
	for i, part := range s.key {
		if i > 0 {
			s.text = append(s.text, keySep...)
		}
		s.text = append(s.text, part...)
	}
	if g, ok := s.index[string(s.text)]; ok {
		return g
	}
	g := int32(len(s.keys))
	s.index[string(s.text)] = g
	// Keys are cut from a slab; an ungrouped query's one key stays nil, as
	// the reference's is.
	var key []string
	if n := len(s.key); n > 0 {
		if len(s.keySlab)+n > cap(s.keySlab) {
			s.keySlab = make([]string, 0, n*min(max(2*len(s.keys), 4), 1024))
		}
		at := len(s.keySlab)
		s.keySlab = append(s.keySlab, s.key...)
		key = s.keySlab[at : at+n : at+n]
	}
	s.keys = append(s.keys, key)
	s.count = append(s.count, 0)
	for ai, a := range s.p.q.Aggregations {
		s.aggs[ai].add(a.Op)
	}
	return g
}

// scanBlock folds one block in, consulting zone maps to skip it outright and
// the decode cache for column reuse across queries. Each phase's time lands
// in res.Phases: the zone-map test as prune, producing typed vectors (a cache
// lookup, or LZ4 + unpack or a set's masks on a miss, and the time column when
// the header cannot answer for it) as decode, and everything else — selection,
// a contains, grouping, aggregation — as scan. The accounting costs a handful
// of clock reads per block (and two per decoded column), which is noise
// against even a pruned block's work.
func (s *scanner) scanBlock(blk Block) error {
	res := s.res
	pruneStart := time.Now()
	pruned := blockPruned(blk, s.p.q)
	scanStart := time.Now()
	res.Phases.PruneNanos += scanStart.Sub(pruneStart).Nanoseconds()
	if pruned {
		res.BlocksPruned++
		return nil
	}
	decodeBefore := res.Phases.DecodeNanos
	err := s.scanRows(blk)
	// Scan time is the block's wall time minus what decoding took of it.
	res.Phases.ScanNanos += time.Since(scanStart).Nanoseconds() - (res.Phases.DecodeNanos - decodeBefore)
	return err
}

// scanRows is scanBlock after the prune decision.
func (s *scanner) scanRows(blk Block) error {
	q, n := s.p.q, blk.Rows()
	s.res.BlocksScanned++
	s.res.RowsScanned += int64(n)
	s.cols = grow(s.cols, len(s.p.cols))
	clear(s.cols)
	s.loaded = grow(s.loaded, len(s.p.cols))
	clear(s.loaded)

	for len(s.all) < n {
		s.all = append(s.all, uint32(len(s.all)))
	}
	sel := s.all[:n]
	s.sel = grow(s.sel, n)

	// The time predicate, unless the header answers it for every row: an
	// unsealed tail whose times ascend holds [From, To] as one run of rows,
	// any other block compares each row's time.
	var times []int64
	within := blk.Within(q.From, q.To)
	if !within || q.TimeBucketSeconds > 0 {
		start := time.Now()
		s.times = grow(s.times, n)
		var err error
		times, err = blk.Times(s.times[:0])
		s.res.Phases.DecodeNanos += time.Since(start).Nanoseconds()
		if err != nil {
			return err
		}
		if len(times) != n {
			return fmt.Errorf("query: time column has %d rows, block has %d", len(times), n)
		}
	}
	if !within {
		lo, hi, ascending := 0, 0, false
		if v, ok := blk.(*rowblock.UnsealedView); ok {
			lo, hi, ascending = v.Range(q.From, q.To)
		}
		if ascending {
			sel = sel[lo:hi]
		} else {
			sel = selectTimes(times, q.From, q.To, sel, s.sel)
		}
	}

	// Filters narrow the selection; a filter is only looked at while rows
	// are left, so its type error only surfaces then (prune.go relies on it).
	for fi, f := range q.Filters {
		if len(sel) == 0 {
			return nil
		}
		col, err := s.column(blk, s.p.filters[fi])
		if err != nil {
			return err
		}
		if sel, err = s.filter(col, f, sel); err != nil {
			return err
		}
	}
	if len(sel) == 0 {
		return nil
	}

	var grp []uint32 // per live row its group; nil when they all are in group 0
	var err error
	if !s.p.single {
		grp, err = s.groupRows(blk, sel, times)
	} else if len(s.keys) == 0 {
		s.key = s.key[:0]
		s.group()
	}
	if err != nil {
		return err
	}
	if grp == nil {
		s.count[0] += int64(len(sel))
	}
	for ai, a := range q.Aggregations {
		slot := s.p.aggs[ai]
		if slot < 0 {
			continue // a count is the group's count
		}
		col, err := s.column(blk, slot)
		if err != nil {
			return err
		}
		if err := s.aggregate(&s.aggs[ai], a, col, grp, sel); err != nil {
			return err
		}
	}
	return nil
}

// grow returns s with length n, reallocating only when it has to; what the
// slice held is not kept.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// column returns the block's column for a plan slot, nil when the block does
// not have it (every row then reads the type's zero), from and into the decode
// cache when there is one. The cache keeps a set as its column.SetMasks; one
// too wide for masks is rows over the block's own bytes, never kept.
func (s *scanner) column(blk Block, slot int) (column.Column, error) {
	if s.loaded[slot] {
		return s.cols[slot], nil
	}
	s.loaded[slot] = true
	name := s.p.cols[slot]
	if !blk.HasColumn(name) {
		return nil, nil
	}
	start := time.Now()
	// track mirrors the registry accounting inside dc.Get: only sealed
	// blocks are cacheable, so per-result hit/miss counts stay comparable to
	// the leaf's query.decode_cache.* counters.
	track := s.dc != nil && cacheable(blk)
	if track {
		if c, ok := s.dc.Get(blk, name); ok {
			s.res.Phases.DecodeNanos += time.Since(start).Nanoseconds()
			s.res.CacheHits++
			s.cols[slot] = c
			return c, nil
		}
		s.res.CacheMisses++
	}
	c, err := blk.DecodeColumn(name)
	if err == nil && c != nil && c.Len() != blk.Rows() {
		err = fmt.Errorf("query: column %q has %d rows, block has %d", name, c.Len(), blk.Rows())
	}
	if set, ok := c.(*column.StringSetColumn); ok && err == nil && track {
		var m *column.SetMasks
		if m, err = set.Masks(); m != nil {
			c = m
		}
	}
	if _, walked := c.(*column.StringSetColumn); err == nil && track && !walked {
		s.dc.Put(blk, name, c)
	}
	s.res.Phases.DecodeNanos += time.Since(start).Nanoseconds()
	if err != nil {
		return nil, err
	}
	s.cols[slot] = c
	return c, nil
}

type setColumn interface { // a contains over a set's encoded rows or its masks
	SelectContains(member string, sel, out []uint32) ([]uint32, error)
}

// selectTimes writes the rows of sel whose time lies in [from, to] to out.
func selectTimes(times []int64, from, to int64, sel, out []uint32) []uint32 {
	k := 0
	for _, i := range sel {
		out[k] = i
		if t := times[i]; t >= from && t <= to {
			k++
		}
	}
	return out[:k]
}

// filter narrows sel to the rows that pass f, into s.sel (which sel may
// already be: a row is written at or before where it was read).
func (s *scanner) filter(col column.Column, f Filter, sel []uint32) ([]uint32, error) {
	switch c := col.(type) {
	case nil:
		// Absent column: evaluate the predicate once against the type's
		// zero value, inferred from the filter's operand.
		if zeroValueMatches(f) {
			return sel, nil
		}
		return sel[:0], nil
	case *column.Int64Column:
		if f.Op == OpContains {
			return nil, fmt.Errorf("query: contains on integer column %q", f.Column)
		}
		return selectCompare(c.Values, f.Int, f.Op, sel, s.sel), nil
	case *column.Float64Column:
		if f.Op == OpContains {
			return nil, fmt.Errorf("query: contains on float column %q", f.Column)
		}
		return selectCompare(c.Values, f.Float, f.Op, sel, s.sel), nil
	case *column.StringColumn:
		if f.Op == OpContains {
			return nil, fmt.Errorf("query: contains on string column %q (use =)", f.Column)
		}
		// Evaluate once per dictionary entry, then test IDs per row — the
		// payoff of dictionary encoding at query time.
		s.match = grow(s.match, len(c.Dict))
		for id, str := range c.Dict {
			s.match[id] = compare(str, f.Str, f.Op)
		}
		match, out, k := s.match, s.sel, 0
		for _, i := range sel {
			out[k] = i
			if match[c.IDs[i]] {
				k++
			}
		}
		return out[:k], nil
	case *column.StringSetColumn, *column.SetMasks:
		if f.Op != OpContains {
			return nil, fmt.Errorf("query: %v on string-set column %q (only contains)", f.Op, f.Column)
		}
		return c.(setColumn).SelectContains(f.Str, sel, s.sel)
	default:
		return nil, fmt.Errorf("query: unsupported column type %v", col.Type())
	}
}

// selectCompare writes the rows of sel whose value compares to x under op
// to out. The operator is picked once, outside the row loop.
func selectCompare[T int64 | float64](vals []T, x T, op CompareOp, sel, out []uint32) []uint32 {
	k := 0
	switch op {
	case OpEq:
		for _, i := range sel {
			out[k] = i
			if vals[i] == x {
				k++
			}
		}
	case OpNe:
		for _, i := range sel {
			out[k] = i
			if vals[i] != x {
				k++
			}
		}
	case OpLt:
		for _, i := range sel {
			out[k] = i
			if vals[i] < x {
				k++
			}
		}
	case OpLe:
		for _, i := range sel {
			out[k] = i
			if vals[i] <= x {
				k++
			}
		}
	case OpGt:
		for _, i := range sel {
			out[k] = i
			if vals[i] > x {
				k++
			}
		}
	case OpGe:
		for _, i := range sel {
			out[k] = i
			if vals[i] >= x {
				k++
			}
		}
	}
	return out[:k]
}

// zeroValueMatches evaluates a filter against an absent column's zero. It
// prefers the operand that is set; ambiguous zero operands are fine because
// every interpretation agrees (0 == 0, "" == "").
func zeroValueMatches(f Filter) bool {
	switch {
	case f.Op == OpContains:
		return false // empty set contains nothing
	case f.Str != "":
		return compare("", f.Str, f.Op)
	case f.Float != 0:
		return compare(0, f.Float, f.Op)
	default:
		return compare(0, f.Int, f.Op)
	}
}

func compare[T int64 | float64 | string](a, b T, op CompareOp) bool {
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

// bucketStart floors t to its bucket's start (correct for negative times).
func bucketStart(t, bucket int64) int64 {
	b := t / bucket
	if t%bucket != 0 && t < 0 {
		b--
	}
	return b * bucket
}

// groupRows returns, per live row, the index of its group among the
// scanner's, and counts the row in its group. Each group-by component (the
// time bucket first) turns into small integers — a string column's
// dictionary IDs as they are, anything integer-like through ranks — which
// fold left to right into one tuple ID per row; the tuple → group table is
// then filled by the first live row of each tuple, the only rows a key
// string is built for. Blocks of one table mostly carry the same
// dictionaries (the same hosts, the same services): a block whose tuple IDs
// are those dictionaries' IDs folded by position means by them what the last
// block meant and keeps its table. Ranks and renumbered pairs go by order of
// first sight in one block, mean nothing in the next, and start the table
// empty.
func (s *scanner) groupRows(blk Block, sel []uint32, times []int64) ([]uint32, error) {
	q := s.p.q
	s.gcols = grow(s.gcols, len(s.p.groups))
	cols := s.gcols
	for gi, slot := range s.p.groups {
		col, err := s.column(blk, slot)
		if err != nil {
			return nil, err
		}
		switch col.(type) {
		case *column.StringSetColumn, *column.SetMasks:
			return nil, fmt.Errorf("query: cannot group by column %q of type %v", q.GroupBy[gi], col.Type())
		}
		cols[gi] = col
	}

	s.acc = grow(s.acc, len(sel))
	acc := s.acc
	space := uint64(1) // tuple IDs so far are below this
	bucket := q.TimeBucketSeconds
	keep := bucket == 0 // the last block's table still holds
	if bucket > 0 {
		s.ints = grow(s.ints, len(sel))
		for k, i := range sel {
			s.ints[k] = bucketStart(times[i], bucket) / bucket
		}
		ids, size := s.rank(s.ints)
		space = s.fold(acc, space, size, ids, nil)
	}
	s.dicts = grow(s.dicts, len(cols)) // what it held stays: the last block's
	for gi, col := range cols {
		var dict []string
		ranked := true
		switch c := col.(type) {
		case *column.StringColumn:
			dict, ranked = c.Dict, false
			keep = keep && positional(space, uint64(len(dict)))
			space = s.fold(acc, space, uint64(len(dict)), c.IDs, sel)
		case *column.Int64Column:
			s.ints = grow(s.ints, len(sel))
			for k, i := range sel {
				s.ints[k] = c.Values[i]
			}
		case *column.Float64Column:
			s.ints = grow(s.ints, len(sel))
			for k, i := range sel {
				s.ints[k] = int64(math.Float64bits(c.Values[i]))
			}
		default: // absent: one value, the empty key part
			ranked = false
		}
		if ranked {
			ids, size := s.rank(s.ints)
			space = s.fold(acc, space, size, ids, nil)
		}
		keep = keep && !ranked && slices.Equal(dict, s.dicts[gi])
		s.dicts[gi] = dict
	}
	if space == 1 {
		clear(acc) // nothing folded: one tuple
	}

	tuples := s.tuples
	if !keep || len(tuples) != int(space) {
		s.tuples = grow(s.tuples, int(space))
		tuples = s.tuples
		for t := range tuples {
			tuples[t] = -1
		}
	}
	// The first block brings at most one group per tuple and per live row:
	// make room once. Later blocks of the table mostly bring the same groups
	// again, and append makes room for the ones they add.
	if len(s.keys) == 0 {
		need := int(min(space, uint64(len(sel))))
		s.keys = make([][]string, 0, need)
		s.count = make([]int64, 0, need)
	}
	for k, t := range acc {
		g := tuples[t]
		if g < 0 {
			g = s.groupAt(sel[k], times, bucket, cols)
			tuples[t] = g
		}
		acc[k] = uint32(g)
		s.count[g]++
	}
	return acc, nil
}

// rank maps one component's per-live-row values to small integers (in s.ids)
// and returns them with their bound: the offset from the smallest value when
// the range is narrow (status codes, time buckets), otherwise order of first
// sight.
func (s *scanner) rank(vals []int64) ([]uint32, uint64) {
	s.ids = grow(s.ids, len(vals))
	ids := s.ids
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo, hi = min(lo, v), max(hi, v)
	}
	if width := uint64(hi) - uint64(lo); width < denseGroups {
		for k, v := range vals {
			ids[k] = uint32(uint64(v) - uint64(lo))
		}
		return ids, width + 1
	}
	if s.ranks == nil {
		s.ranks = make(map[int64]uint32)
	}
	clear(s.ranks)
	last, lastID := vals[0]+1, uint32(0) // sorted columns repeat their last value
	for k, v := range vals {
		if v != last {
			id, ok := s.ranks[v]
			if !ok {
				id = uint32(len(s.ranks))
				s.ranks[v] = id
			}
			last, lastID = v, id
		}
		ids[k] = lastID
	}
	return ids, uint64(len(s.ranks))
}

// fold widens every live row's tuple ID (below space) by one more component
// whose IDs are below size, and returns the new bound. ids is per live row,
// or per block row and read through sel. While the ID space stays small the
// tuple is positional arithmetic; past denseGroups it is renumbered to the
// pairs that occur, of which there are at most as many as live rows.
func (s *scanner) fold(acc []uint32, space, size uint64, ids, sel []uint32) uint64 {
	switch {
	case space == 1 && sel == nil: // the first component is the tuple so far
		copy(acc, ids)
		return size
	case space == 1:
		for k, i := range sel {
			acc[k] = ids[i]
		}
		return size
	case positional(space, size) && sel == nil:
		w := uint32(size)
		for k := range acc {
			acc[k] = acc[k]*w + ids[k]
		}
		return space * size
	case positional(space, size):
		w := uint32(size)
		for k, i := range sel {
			acc[k] = acc[k]*w + ids[i]
		}
		return space * size
	}
	if s.pairs == nil {
		s.pairs = make(map[uint64]uint32)
	}
	clear(s.pairs)
	for k := range acc {
		id := ids[k]
		if sel != nil {
			id = ids[sel[k]]
		}
		pair := uint64(acc[k])<<32 | uint64(id)
		r, ok := s.pairs[pair]
		if !ok {
			r = uint32(len(s.pairs))
			s.pairs[pair] = r
		}
		acc[k] = r
	}
	return uint64(len(s.pairs))
}

// positional reports whether fold widens tuple IDs below space by a component
// of size by arithmetic — the tuple ID is then a function of the component IDs
// alone — rather than by renumbering the pairs a block happens to hold.
func positional(space, size uint64) bool {
	return space == 1 || space*size <= denseGroups
}

// groupAt returns the group of block row i, building its key the one time
// per block the tuple → group table has no answer.
func (s *scanner) groupAt(i uint32, times []int64, bucket int64, cols []column.Column) int32 {
	s.key = s.key[:0]
	if bucket > 0 {
		s.key = append(s.key, strconv.FormatInt(bucketStart(times[i], bucket), 10))
	}
	for _, col := range cols {
		part := ""
		switch c := col.(type) {
		case *column.StringColumn:
			part = c.Dict[c.IDs[i]]
		case *column.Int64Column:
			part = strconv.FormatInt(c.Values[i], 10)
		case *column.Float64Column:
			part = strconv.FormatFloat(c.Values[i], 'g', -1, 64)
		}
		s.key = append(s.key, part)
	}
	return s.group()
}

// aggregate folds the live rows' values of one aggregation's column into
// that aggregation's accumulators, in row order. A nil column is one the
// block does not have: every row observes zero. A nil grp is a plan with one
// group, whose sum, min and max kernels keep accumulator 0 in registers; the
// other kernels are handed every row's group spelled out.
func (s *scanner) aggregate(c *aggColumn, a Aggregation, col column.Column, grp, sel []uint32) error {
	if grp == nil && (a.Op.percentile() || a.Op == AggCountDistinct) {
		s.acc = grow(s.acc, len(sel))
		clear(s.acc)
		grp = s.acc
	}
	if a.Op == AggCountDistinct {
		return s.distinct(c.sets, a, col, grp, sel)
	}
	switch col := col.(type) {
	case nil:
		s.ints = grow(s.ints, len(sel))
		clear(s.ints)
		accumulate(c, len(s.keys), a.Op, s.ints, grp, s.all[:len(sel)])
	case *column.Int64Column:
		accumulate(c, len(s.keys), a.Op, col.Values, grp, sel)
	case *column.Float64Column:
		accumulate(c, len(s.keys), a.Op, col.Values, grp, sel)
	default:
		return fmt.Errorf("query: cannot aggregate column %q of type %v", a.Column, col.Type())
	}
	return nil
}

// accumulate is the op's kernel over a column's values in place: one pass,
// each live row's value converted to float64 once and folded into its
// group's accumulator in row order (so a sum adds what AggState.Observe
// would, in the order it would); a percentile bumps its group's table row.
func accumulate[T int64 | float64](c *aggColumn, groups int, op AggOp, vals []T, grp, sel []uint32) {
	acc := c.vals
	switch {
	case op.percentile():
		bumpAll(&c.hist, groups, vals, grp, sel)
	case grp == nil:
		a := acc[0]
		switch op {
		case AggSum, AggAvg:
			for _, i := range sel {
				a += float64(vals[i])
			}
		case AggMin:
			for _, i := range sel {
				if v := float64(vals[i]); v < a {
					a = v
				}
			}
		case AggMax:
			for _, i := range sel {
				if v := float64(vals[i]); v > a {
					a = v
				}
			}
		}
		acc[0] = a
	case op == AggSum || op == AggAvg:
		for k, i := range sel {
			acc[grp[k]] += float64(vals[i])
		}
	case op == AggMin:
		for k, i := range sel {
			if v := float64(vals[i]); v < acc[grp[k]] {
				acc[grp[k]] = v
			}
		}
	case op == AggMax:
		for k, i := range sel {
			if v := float64(vals[i]); v > acc[grp[k]] {
				acc[grp[k]] = v
			}
		}
	}
}

// bumpAll counts each live row's value in its group's row of the table,
// holding the window and the table in locals until a value falls outside
// the window. An integer column is bucketed without the float.
func bumpAll[T int64 | float64](h *flatHist, groups int, vals []T, grp, sel []uint32) {
	ints, isInt := any(vals).([]int64)
	lo, w, tab := h.lo, h.width, h.counts
	for k, i := range sel {
		var b int
		if isInt {
			b = bucketOfInt(ints[i])
		} else {
			b = bucketOf(float64(vals[i]))
		}
		if uint(b-lo) >= uint(w) {
			h.widen(b, groups)
			lo, w, tab = h.lo, h.width, h.counts
		}
		tab[int(grp[k])*w+b-lo]++
	}
}

// distinctBits bounds the (group, dictionary ID) bitmap of a count-distinct
// over a string column; past it every row goes to the group's set.
const distinctBits = 1 << 22

// distinct is AggState.ObserveDistinct over the live rows, into the groups'
// sets. On a dictionary column it marks (group, ID) pairs and touches a
// string — and the group's set — once per pair per block.
func (s *scanner) distinct(sets []map[string]bool, a Aggregation, col column.Column, grp, sel []uint32) error {
	switch c := col.(type) {
	case nil:
		for _, g := range grp {
			if set := sets[g]; !set[""] {
				set[""] = true
			}
		}
	case *column.StringColumn:
		width := uint64(len(c.Dict))
		if bits := uint64(len(sets)) * width; bits <= distinctBits {
			s.seen = grow(s.seen, int(bits+63)/64)
			seen := s.seen
			clear(seen)
			for k, i := range sel {
				g, id := grp[k], c.IDs[i]
				bit := uint64(g)*width + uint64(id)
				if seen[bit>>6]&(1<<(bit&63)) == 0 {
					seen[bit>>6] |= 1 << (bit & 63)
					sets[g][c.Dict[id]] = true
				}
			}
			break
		}
		for k, i := range sel {
			sets[grp[k]][c.Dict[c.IDs[i]]] = true
		}
	case *column.Int64Column:
		for k, i := range sel {
			s.text = strconv.AppendInt(s.text[:0], c.Values[i], 10)
			if set := sets[grp[k]]; !set[string(s.text)] {
				set[string(s.text)] = true
			}
		}
	case *column.Float64Column:
		for k, i := range sel {
			s.text = strconv.AppendFloat(s.text[:0], c.Values[i], 'g', -1, 64)
			if set := sets[grp[k]]; !set[string(s.text)] {
				set[string(s.text)] = true
			}
		}
	default:
		return fmt.Errorf("query: cannot stringify column %q of type %v", a.Column, col.Type())
	}
	return nil
}
