package query

// The result frame: the binary encoding of one Result, what a leaf answers an
// aggregator with and an aggregator its client (wire.Response.Frame). It is
// built from the batch frame's primitives (rowblock.Reader and the Append
// functions beside it) and laid out the same way — columnar, every length
// ahead of the bytes it measures, so that decoding allocates per column, not
// per group. Pinned by testdata/result-frame-v1.golden.
//
//	u32     magic "SRF1"
//	u8      version (1)
//	14 zigzag varints: RowsScanned, BlocksScanned, BlocksSkipped, BlocksPruned,
//	        LeavesTotal, LeavesAnswered, ShardsTotal, ShardsAnswered,
//	        Phases.{Decode,Prune,Scan,Merge}Nanos, CacheHits, CacheMisses
//	uvarint ngroups
//	uvarint nkeys   parts per group key (0: the ungrouped query's one nil key)
//	uvarint naggs   accumulators per group
//	per key position, groups in order (which is key-tuple order, so a
//	position's values come in runs):
//	    uvarint ndict, then the dictionary, the position's distinct values
//	            ascending: ndict uvarint lengths, then the bytes back to back
//	    ngroups uvarint dictionary IDs
//	per aggregation:
//	    u8      shape: bit 0 the accumulators have histograms, bit 1 sets
//	    ngroups zigzag varints   Count
//	    ngroups x 8 bytes LE     Sum, then Min, then Max
//	    histograms: ngroups bytes Lo, ngroups bytes window length, then every
//	            window's counts back to back as uvarints
//	    sets:   ngroups uvarint counts, one uvarint length per element, then
//	            the element bytes back to back; a set's elements ascend
//	u32     CRC-32C over everything above
//
// A result has one encoding, so a decoded frame re-encodes to the bytes it was.
// A decoded group's key parts are substrings of its positions' dictionary
// texts, its accumulators, histograms and windows cuts of one slab each; only
// a count-distinct's sets, which are maps, cost an allocation per group.

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"scuba/internal/codec"
	"scuba/internal/rowblock"
)

const (
	resultFrameMagic   uint32 = 0x31465253 // "SRF1"
	resultFrameVersion byte   = 1

	shapeHist     = 1 << 0
	shapeDistinct = 1 << 1
)

// counters lists the work counters and phase times in frame order.
func (r *Result) counters() [14]int64 {
	return [...]int64{
		r.RowsScanned, r.BlocksScanned, r.BlocksSkipped, r.BlocksPruned,
		int64(r.LeavesTotal), int64(r.LeavesAnswered), int64(r.ShardsTotal), int64(r.ShardsAnswered),
		r.Phases.DecodeNanos, r.Phases.PruneNanos, r.Phases.ScanNanos, r.Phases.MergeNanos,
		r.CacheHits, r.CacheMisses,
	}
}

func (r *Result) setCounters(c [14]int64) {
	r.RowsScanned, r.BlocksScanned, r.BlocksSkipped, r.BlocksPruned = c[0], c[1], c[2], c[3]
	r.LeavesTotal, r.LeavesAnswered, r.ShardsTotal, r.ShardsAnswered = int(c[4]), int(c[5]), int(c[6]), int(c[7])
	r.Phases = PhaseTimes{DecodeNanos: c[8], PruneNanos: c[9], ScanNanos: c[10], MergeNanos: c[11]}
	r.CacheHits, r.CacheMisses = c[12], c[13]
}

// AppendFrame appends r's result frame to dst. Every group must have the
// first group's shape — as many key parts and accumulators, histograms under
// the same aggregations — which every result of one query has.
func (r *Result) AppendFrame(dst []byte) ([]byte, error) {
	base := len(dst)
	groups := r.Groups
	nkeys, naggs := 0, 0
	if len(groups) > 0 {
		nkeys, naggs = len(groups[0].Key), len(groups[0].Aggs)
	}
	for i := range groups {
		if g := &groups[i]; len(g.Key) != nkeys || len(g.Aggs) != naggs {
			return nil, fmt.Errorf("query: result group %d has %d key parts and %d accumulators, the first %d and %d",
				i, len(g.Key), len(g.Aggs), nkeys, naggs)
		}
	}
	if dst == nil {
		// Roughly what the groups take: no append below has to move them.
		dst = make([]byte, 0, 128+len(groups)*(8*nkeys+48*naggs))
	}
	dst = rowblock.AppendFrameHeader(dst, resultFrameMagic, resultFrameVersion)
	c := r.counters()
	dst = rowblock.AppendInts(dst, c[:])
	dst = binary.AppendUvarint(dst, uint64(len(groups)))
	dst = binary.AppendUvarint(dst, uint64(nkeys))
	dst = binary.AppendUvarint(dst, uint64(naggs))

	dicts, ranks := rankKeys(len(groups), nkeys, func(i int) []string { return groups[i].Key })
	for p, dict := range dicts {
		dst = binary.AppendUvarint(dst, uint64(len(dict)))
		dst = rowblock.AppendStrs(dst, dict)
		for i := range groups {
			dst = binary.AppendUvarint(dst, uint64(ranks[i*nkeys+p]))
		}
	}

	for ai := 0; ai < naggs; ai++ {
		var shape byte
		if groups[0].Aggs[ai].Hist != nil {
			shape |= shapeHist
		}
		for i := range groups {
			st := &groups[i].Aggs[ai]
			if (st.Hist != nil) != (shape&shapeHist != 0) {
				return nil, fmt.Errorf("query: result group %d, accumulator %d: a histogram where the first group has none, or none where it has one", i, ai)
			}
			if h := st.Hist; h != nil && (h.Lo < 0 || h.Lo+len(h.Counts) > histBuckets) {
				return nil, fmt.Errorf("query: result group %d, accumulator %d: histogram window [%d, %d)", i, ai, h.Lo, h.Lo+len(h.Counts))
			}
			if st.Distinct != nil {
				shape |= shapeDistinct
			}
		}
		dst = append(dst, shape)
		for i := range groups {
			dst = binary.AppendUvarint(dst, codec.ZigZag(groups[i].Aggs[ai].Count))
		}
		for i := range groups {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(groups[i].Aggs[ai].Sum))
		}
		for i := range groups {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(groups[i].Aggs[ai].Min))
		}
		for i := range groups {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(groups[i].Aggs[ai].Max))
		}
		if shape&shapeHist != 0 {
			for i := range groups {
				dst = append(dst, byte(groups[i].Aggs[ai].Hist.Lo))
			}
			for i := range groups {
				dst = append(dst, byte(len(groups[i].Aggs[ai].Hist.Counts)))
			}
			for i := range groups {
				for _, c := range groups[i].Aggs[ai].Hist.Counts {
					dst = binary.AppendUvarint(dst, uint64(c))
				}
			}
		}
		if shape&shapeDistinct != 0 {
			dst = rowblock.AppendSets(dst, sortedSets(groups, ai))
		}
	}
	return rowblock.SealFrame(dst, base), nil
}

// rankKeys reduces n key tuples of nkeys parts to integers: per position the
// distinct parts in ascending order, and per key (row-major, nkeys apart) each
// part's rank among them. Ranks compare as the parts do, so tuples of ranks
// order as compareKeys orders the keys.
func rankKeys(n, nkeys int, key func(i int) []string) (dicts [][]string, ranks []uint32) {
	if nkeys == 0 {
		return nil, nil
	}
	dicts, ranks = make([][]string, nkeys), make([]uint32, n*nkeys)
	// A position mostly has far fewer distinct parts than there are keys; room
	// for a thousand up front saves growing to the usual few hundred.
	room := min(n, 1024)
	var (
		seen  = make([]string, 0, room) // the position's distinct parts, in order of first sight
		rank  = make([]uint32, 0, room) // first-sight number → rank
		index = make(map[string]uint32, room/4)
	)
	for p := range dicts {
		seen = seen[:0]
		clear(index)
		for i := 0; i < n; i++ {
			// Keys in order mostly repeat the part before them (and the first
			// position never returns to a part it has left): the index is
			// consulted only where a run ends.
			part := key(i)[p]
			if i > 0 && part == key(i - 1)[p] {
				ranks[i*nkeys+p] = ranks[(i-1)*nkeys+p]
				continue
			}
			id, ok := index[part]
			if !ok {
				id = uint32(len(seen))
				index[part] = id
				seen = append(seen, part)
			}
			ranks[i*nkeys+p] = id
		}
		dict := slices.Clone(seen)
		slices.Sort(dict)
		rank = rank[:0]
		for _, part := range seen {
			at, _ := slices.BinarySearch(dict, part)
			rank = append(rank, uint32(at))
		}
		for i := 0; i < n; i++ {
			ranks[i*nkeys+p] = rank[ranks[i*nkeys+p]]
		}
		dicts[p] = dict
	}
	return dicts, ranks
}

// sortedSets returns every group's distinct set under aggregation ai as a
// sorted list, all cut from one slab.
func sortedSets(groups []Group, ai int) [][]string {
	total := 0
	for i := range groups {
		total += len(groups[i].Aggs[ai].Distinct)
	}
	sets, slab := make([][]string, len(groups)), make([]string, 0, total)
	for i := range groups {
		at := len(slab)
		for v := range groups[i].Aggs[ai].Distinct {
			slab = append(slab, v)
		}
		sets[i] = slab[at:]
		slices.Sort(sets[i])
	}
	return sets
}

// DecodeResultFrame parses one whole result frame. The input is untrusted: a
// bad magic, version or checksum, a count the buffer cannot hold, a
// dictionary ID, histogram window or set out of range, or trailing bytes all
// fail with an error that wraps rowblock.ErrBatchCorrupt. The result does not
// alias frame. Whether it answers a given query is Validate's to say, and
// whether its groups are in order SortGroups'.
func DecodeResultFrame(frame []byte) (*Result, error) {
	res, err := decodeResultFrame(frame)
	if err != nil {
		return nil, fmt.Errorf("query: result frame: %w", err)
	}
	return res, nil
}

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{rowblock.ErrBatchCorrupt}, args...)...)
}

func decodeResultFrame(frame []byte) (*Result, error) {
	r, err := rowblock.OpenFrame(frame, resultFrameMagic, resultFrameVersion)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	var c [14]int64
	for i := range c {
		if c[i], err = r.Int(); err != nil {
			return nil, err
		}
	}
	res.setCounters(c)
	// Every count below is backed by at least a byte per item it announces
	// before anything is sized by it: a group by its ID at each key position
	// (a result has one group without a key at most), an accumulator by its
	// shape byte and its Count.
	n, err := r.Count()
	if err != nil {
		return nil, err
	}
	nkeys, err := r.Count()
	if err != nil {
		return nil, err
	}
	naggs, err := r.Count()
	if err != nil {
		return nil, err
	}
	if nkeys == 0 && n > 1 {
		return nil, corrupt("%d groups without a key", n)
	}
	if n > 0 && (nkeys > r.Left()/n || naggs > r.Left()/n) {
		return nil, corrupt("%d groups of %d key parts and %d accumulators in %d bytes", n, nkeys, naggs, r.Left())
	}
	if n == 0 && nkeys+naggs != 0 {
		return nil, corrupt("%d key parts and %d accumulators of no group", nkeys, naggs)
	}
	res.Groups = make([]Group, n)
	groups := res.Groups

	if nkeys > 0 { // an ungrouped query's one key stays nil
		keys := make([]string, n*nkeys)
		for i := range groups {
			groups[i].Key = keys[i*nkeys : (i+1)*nkeys : (i+1)*nkeys]
		}
	}
	var used []bool
	for p := 0; p < nkeys; p++ {
		ndict, err := r.Count()
		if err != nil {
			return nil, err
		}
		dict, err := r.Strs(nil, ndict)
		if err != nil {
			return nil, err
		}
		for k := 1; k < len(dict); k++ {
			if dict[k-1] >= dict[k] {
				return nil, corrupt("key part %d: dictionary entry %q out of order", p, dict[k])
			}
		}
		used = append(used[:0], make([]bool, len(dict))...)
		for i := range groups {
			id, err := r.Uvarint()
			if err != nil {
				return nil, err
			}
			if id >= uint64(len(dict)) {
				return nil, corrupt("key part %d of group %d: ID %d in a dictionary of %d", p, i, id, len(dict))
			}
			groups[i].Key[p], used[id] = dict[id], true
		}
		if k := slices.Index(used, false); k >= 0 {
			return nil, corrupt("key part %d: dictionary entry %q names no group", p, dict[k])
		}
	}

	states := make([]AggState, n*naggs)
	for i := range groups {
		groups[i].Aggs = states[i*naggs : (i+1)*naggs : (i+1)*naggs]
	}
	for ai := 0; ai < naggs; ai++ {
		b, err := r.Bytes(1)
		if err != nil {
			return nil, err
		}
		shape := b[0]
		if shape&^(shapeHist|shapeDistinct) != 0 {
			return nil, corrupt("accumulator %d: shape %#x", ai, shape)
		}
		for i := 0; i < n; i++ {
			if states[i*naggs+ai].Count, err = r.Int(); err != nil {
				return nil, err
			}
		}
		if n > r.Left()/24 {
			return nil, corrupt("accumulator %d: %d sums, minima and maxima in %d bytes", ai, n, r.Left())
		}
		raw, _ := r.Bytes(24 * n)
		for i := 0; i < n; i++ {
			st := &states[i*naggs+ai]
			st.Sum = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			st.Min = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*(n+i):]))
			st.Max = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*(2*n+i):]))
		}
		if shape&shapeHist != 0 {
			if err := decodeHistograms(&r, states[ai:], naggs, n); err != nil {
				return nil, fmt.Errorf("accumulator %d: %w", ai, err)
			}
		}
		if shape&shapeDistinct != 0 {
			sets, _, err := r.Sets(nil, nil, n)
			if err != nil {
				return nil, fmt.Errorf("accumulator %d: %w", ai, err)
			}
			for i, set := range sets {
				for k := 1; k < len(set); k++ {
					if set[k-1] >= set[k] {
						return nil, corrupt("accumulator %d of group %d: set element %q out of order", ai, i, set[k])
					}
				}
				m := make(map[string]bool, len(set))
				for _, v := range set {
					m[v] = true
				}
				states[i*naggs+ai].Distinct = m
			}
		}
	}
	if r.Left() != 0 {
		return nil, corrupt("%d trailing frame bytes", r.Left())
	}
	return res, nil
}

// decodeHistograms reads one aggregation's histograms into n accumulators,
// stride apart from states[0] on: the histograms are one slab, their windows
// cuts of another.
func decodeHistograms(r *rowblock.Reader, states []AggState, stride, n int) error {
	los, err := r.Bytes(n)
	if err != nil {
		return err
	}
	lens, err := r.Bytes(n)
	if err != nil {
		return err
	}
	cells := 0
	for i, l := range lens {
		if int(los[i])+int(l) > histBuckets {
			return corrupt("group %d: histogram window [%d, %d)", i, los[i], int(los[i])+int(l))
		}
		cells += int(l)
	}
	if cells > r.Left() {
		return corrupt("%d histogram counts in %d bytes", cells, r.Left())
	}
	hists, counts := make([]Histogram, n), make([]int64, cells)
	if err := r.Counts(counts); err != nil {
		return err
	}
	for i := range hists {
		h := &hists[i]
		states[i*stride].Hist, h.Lo = h, int(los[i])
		if lens[i] == 0 {
			continue // no window, like a histogram nothing was added to
		}
		h.Counts, counts = counts[:lens[i]:lens[i]], counts[lens[i]:]
		var total int64
		for _, c := range h.Counts {
			if total += c; total < 0 {
				return corrupt("group %d: histogram counts sum past the int64 range", i)
			}
		}
	}
	return nil
}
