package wire

// Protocol 3's query result, for the peers that still read it: during a
// rollover old aggregators query new leaves, and old clients new aggregators,
// for as long as it lasts. Through protocol 3 the result rode the gob
// envelope as a struct of these fields, histograms all 65 buckets wide; a
// requester whose Request.Version is below 4 is answered with this mirror of
// it, filled from the result the frame would have carried. Encode only — a
// current client reads Response.Frame and nothing else.
//
// Delete this file, Response.Result and the version test in
// Response.setResult with the release that makes protocol 5: by then no
// supported peer is below 4 (DESIGN.md §13).

import "scuba/internal/query"

type v3Result struct {
	Groups         []v3Group
	RowsScanned    int64
	BlocksScanned  int64
	BlocksSkipped  int64
	BlocksPruned   int64
	LeavesTotal    int
	LeavesAnswered int
	ShardsTotal    int
	ShardsAnswered int
	Phases         query.PhaseTimes
	CacheHits      int64
	CacheMisses    int64
}

type v3Group struct {
	Key  []string
	Aggs []v3AggState
}

type v3AggState struct {
	Count    int64
	Sum      float64
	Min      float64
	Max      float64
	Hist     *v3Histogram
	Distinct map[string]bool
}

// v3Histogram is the dense histogram: query.Histogram's window laid into all
// of the bucket range.
type v3Histogram struct {
	Counts [65]int64
	Total  int64
}

// v3ResultOf converts a result to protocol 3's shape. It shares res's keys
// and sets; the result is only ever encoded.
func v3ResultOf(res *query.Result) *v3Result {
	out := &v3Result{
		Groups:      make([]v3Group, len(res.Groups)),
		RowsScanned: res.RowsScanned, BlocksScanned: res.BlocksScanned,
		BlocksSkipped: res.BlocksSkipped, BlocksPruned: res.BlocksPruned,
		LeavesTotal: res.LeavesTotal, LeavesAnswered: res.LeavesAnswered,
		ShardsTotal: res.ShardsTotal, ShardsAnswered: res.ShardsAnswered,
		Phases: res.Phases, CacheHits: res.CacheHits, CacheMisses: res.CacheMisses,
	}
	for i, g := range res.Groups {
		aggs := make([]v3AggState, len(g.Aggs))
		for ai, st := range g.Aggs {
			aggs[ai] = v3AggState{Count: st.Count, Sum: st.Sum, Min: st.Min, Max: st.Max, Distinct: st.Distinct}
			if h := st.Hist; h != nil {
				dense := &v3Histogram{Total: h.Total()}
				copy(dense.Counts[h.Lo:], h.Counts)
				aggs[ai].Hist = dense
			}
		}
		out.Groups[i] = v3Group{Key: g.Key, Aggs: aggs}
	}
	return out
}
