package query

import "scuba/internal/rowblock"

// Zone-map pruning: before decoding anything, the executor tests each filter
// against the block's per-column summaries (C-Store-style min/max and
// dictionary Bloom filters, stamped at seal time). A summary that excludes
// every possible row lets the whole block be skipped — no LZ4 decode, no
// per-row mask work — counted as Result.BlocksPruned.
//
// Pruning must be invisible apart from speed: a pruned block and a scanned
// block must contribute identically (nothing) to the result, including error
// behavior. scanRows stops applying filters the moment the live-row count
// hits zero, so a type error in filter k is only ever surfaced when filters
// 1..k-1 left rows alive. blockPruned mirrors that exactly: it walks filters
// in order and prunes on the first zone exclusion, but gives up (scans) as
// soon as it meets a filter it cannot prove error-free, so it never hides an
// error a real scan would have returned.

// zoner is implemented by sealed row blocks that carry zone maps. Unsealed
// views don't implement it, a column without a summary returns a nil zone,
// and both are always scanned.
type zoner interface {
	ColumnZone(name string) *rowblock.ZoneMap
}

// blockPruned reports whether zone maps prove no row of rb can match q.
func blockPruned(rb Block, q *Query) bool {
	z, ok := rb.(zoner)
	if !ok {
		return false
	}
	for _, f := range q.Filters {
		zm := z.ColumnZone(f.Column)
		if zoneExcludes(zm, f) {
			return true
		}
		if !filterErrorFree(rb, zm, f) {
			return false
		}
	}
	return false
}

// zoneExcludes reports whether the zone map proves no row matches f. Only
// operator/kind pairs that the scan's filter evaluates without error may prune;
// everything else answers false (must scan). A nil zone map (absent or
// unsummarized column) never prunes.
func zoneExcludes(z *rowblock.ZoneMap, f Filter) bool {
	if z == nil {
		return false
	}
	switch z.Kind {
	case rowblock.ZoneInt:
		switch f.Op {
		case OpEq:
			return f.Int < z.MinI || f.Int > z.MaxI
		case OpNe:
			return z.MinI == z.MaxI && z.MinI == f.Int
		case OpLt:
			return z.MinI >= f.Int
		case OpLe:
			return z.MinI > f.Int
		case OpGt:
			return z.MaxI <= f.Int
		case OpGe:
			return z.MaxI < f.Int
		}
	case rowblock.ZoneFloat:
		// A NaN operand compares false everywhere below, so it never prunes
		// (and the scan would match nothing anyway). Blocks containing NaN
		// values sealed a ZoneNone summary and never reach this point.
		switch f.Op {
		case OpEq:
			return f.Float < z.MinF || f.Float > z.MaxF
		case OpNe:
			return z.MinF == z.MaxF && z.MinF == f.Float
		case OpLt:
			return z.MinF >= f.Float
		case OpLe:
			return z.MinF > f.Float
		case OpGt:
			return z.MaxF <= f.Float
		case OpGe:
			return z.MaxF < f.Float
		}
	case rowblock.ZoneDict:
		if f.Op == OpEq {
			return !z.MayContain(f.Str)
		}
	case rowblock.ZoneSetDict:
		if f.Op == OpContains {
			return !z.MayContain(f.Str)
		}
	}
	return false
}

// filterErrorFree reports whether applying f to this block provably cannot
// return a type error, judged from the zone kind (which encodes the column's
// sealed type). Unknown type (zone-less column in the schema) answers false.
func filterErrorFree(rb Block, zm *rowblock.ZoneMap, f Filter) bool {
	if zm == nil {
		// Absent column: the zero-value path never errors. Present but
		// unsummarized: type unknown, assume the worst.
		return !rb.HasColumn(f.Column)
	}
	switch zm.Kind {
	case rowblock.ZoneInt, rowblock.ZoneFloat, rowblock.ZoneDict:
		return f.Op != OpContains
	case rowblock.ZoneSetDict:
		return f.Op == OpContains
	}
	return false
}
