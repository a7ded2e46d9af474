// Package aggregator implements Scuba's aggregator servers (§2, Figure 1).
// An aggregator distributes a query to leaf servers and aggregates the
// results as they arrive. Scuba returns partial query results when not all
// servers are available (§1); the aggregator therefore never fails a query
// because some leaves are restarting — it reports coverage instead.
//
// Without a shard map the aggregator fans every query out to every leaf
// (the paper's §2 topology). With a shard.Router set, it routes each query
// only to the leaves owning the table's shards, failing over to a replica
// when a primary is draining or down — so a rolling restart (§5) keeps
// every shard queryable from a peer instead of dropping coverage.
package aggregator

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"scuba/internal/metrics"
	"scuba/internal/obs"
	"scuba/internal/query"
	"scuba/internal/shard"
)

// leafAnswer is one target's reply during fan-out.
type leafAnswer struct {
	i    int // index into the fan-out plan
	res  *query.Result
	exec *obs.ExecStats
	err  error
	sent time.Time // when the RPC left; rtt is measured from it
	rtt  time.Duration
	// shardsOK is how many of the slot's shards were answered — by the
	// target itself, or by replicas after a failover retry (sharded plans).
	shardsOK int
	// failedOver marks a slot whose target errored but whose shards were
	// re-fetched from replicas: res holds the replicas' merged partials
	// while the leaf itself still counts as unanswered.
	failedOver bool
}

// LeafTarget is a leaf as seen by the aggregator: *leaf.Leaf and cluster
// nodes in process, a wire client across processes. QueryShards answers q
// over the named shards of its table (stored leaf-side as physical tables,
// shard.PhysicalTable), or over the whole logical table when shards is
// empty, and reports how the answer was computed; the report's span ID
// echoes tc's.
type LeafTarget interface {
	QueryShards(q *query.Query, shards []int, tc obs.TraceContext) (*query.Result, *obs.ExecStats, error)
}

// Aggregator fans queries out to a fixed set of leaves.
type Aggregator struct {
	leaves []LeafTarget
	// LeafTimeout bounds how long a query waits for any single leaf
	// (0 = wait forever). At the deadline the merge proceeds with whatever
	// has arrived; stragglers are abandoned and show up as unanswered in
	// LeavesTotal/LeavesAnswered coverage — the paper's partial-results
	// contract (§1) instead of one hung leaf wedging every query.
	LeafTimeout time.Duration
	// Router, when non-nil, turns on shard routing: each query fans out
	// only to the leaves the router assigns for its table (replicas
	// covering drained primaries) and results carry per-shard coverage. The
	// router's map must list leaves in the same order as the aggregator's
	// targets.
	Router *shard.Router
	// Metrics, when non-nil, receives per-query instrumentation: the
	// query.latency timer and query.latency_hist histogram (end-to-end
	// fan-out + merge), query.count / query.errors counters, the
	// query.leaves_total / query.leaves_answered coverage counters, a
	// query.leaves_abandoned counter of stragglers dropped at LeafTimeout,
	// and a query.fanout histogram of leaves answered per query. With a
	// Router set, query.shards_total / query.shards_answered /
	// query.shards_unserved count per-shard coverage.
	Metrics *metrics.Registry
	// Tracer, when non-nil, turns on per-query tracing: every query is
	// stamped with a trace ID and per-leaf span IDs, and the assembled trace —
	// a root span, then one span per target, each answered one carrying its
	// target's ExecStats — goes to the tracer's observer (its sink writes it
	// into __system.traces).
	Tracer *obs.Tracer
	// Labels names each leaf in traces (index-parallel to the targets);
	// missing entries render as "leaf<i>". Daemons set the leaf addresses.
	Labels []string
}

// New creates an aggregator over the given leaves.
func New(leaves []LeafTarget) *Aggregator {
	return &Aggregator{leaves: leaves}
}

// ErrNoLeaves is returned when the aggregator has no leaves at all.
var ErrNoLeaves = errors.New("aggregator: no leaves configured")

// fanTarget is one slot of a query's fan-out plan: a target plus the shards
// it serves for this query (nil = the whole table, the unsharded topology).
type fanTarget struct {
	idx    int
	shards []int
}

// fanPlan is the routing decision for one query, computed once before
// fan-out so a concurrent shard-map flip never splits a query between two
// views of the cluster.
type fanPlan struct {
	targets []fanTarget
	sharded bool
	// shardsTotal/shardsUnserved only when sharded.
	shardsTotal    int
	shardsUnserved int
}

// plan routes one query. Unsharded: every leaf, whole table. Sharded: the
// router's assignment, one slot per serving leaf, sorted by leaf index so
// span order is stable.
func (a *Aggregator) plan(table string) fanPlan {
	if a.Router == nil || obs.IsSystemTable(table) {
		// Self-telemetry (__system.*) tables are leaf-local plain tables:
		// each daemon's sink writes to whichever leaf holds its rows, so a
		// query must fan out to every leaf and merge, never shard-route
		// (under routing the leaves would rewrite to physical "T@s" names
		// that no sink ever wrote). Leaves without the table answer empty
		// partials, which merge away.
		p := fanPlan{targets: make([]fanTarget, len(a.leaves))}
		for i := range a.leaves {
			p.targets[i] = fanTarget{idx: i}
		}
		return p
	}
	asn := a.Router.Assign(table)
	p := fanPlan{sharded: true, shardsTotal: asn.Total, shardsUnserved: len(asn.Unserved)}
	idxs := make([]int, 0, len(asn.PerLeaf))
	for idx := range asn.PerLeaf {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	for _, idx := range idxs {
		if idx < len(a.leaves) {
			p.targets = append(p.targets, fanTarget{idx: idx, shards: asn.PerLeaf[idx]})
		}
	}
	return p
}

// Query runs q on every leaf (or, with a shard router, every leaf serving
// one of the table's shards) and merges the partial results. Leaves that
// error (restarting, unreachable) are skipped; the merged result's
// LeavesTotal/LeavesAnswered — and ShardsTotal/ShardsAnswered under shard
// routing — report the coverage users see on dashboards.
func (a *Aggregator) Query(q *query.Query) (*query.Result, error) {
	return a.QueryTraced(q, obs.TraceContext{})
}

// QueryTraced runs a query with trace context. A nonzero parent trace ID is
// adopted (aggregator trees keep one trace ID end to end); otherwise the
// aggregator's tracer mints one, and with no tracer the query runs untraced
// exactly as before the trace protocol existed.
func (a *Aggregator) QueryTraced(q *query.Query, parent obs.TraceContext) (*query.Result, error) {
	start := time.Now()
	if err := q.Validate(); err != nil {
		if a.Metrics != nil {
			a.Metrics.Counter("query.errors").Add(1)
		}
		return nil, err
	}
	if len(a.leaves) == 0 {
		if a.Metrics != nil {
			a.Metrics.Counter("query.errors").Add(1)
		}
		return nil, ErrNoLeaves
	}
	plan := a.plan(q.Table)
	traceID := parent.TraceID
	if traceID == 0 {
		traceID = a.Tracer.NewTraceID()
	}
	// Span contexts are stamped before fan-out so each goroutine only reads
	// its own slot: one span ID per planned target, reused across
	// wire-client retries, so the assembled trace has exactly one span per
	// leaf.
	ctxs := make([]obs.TraceContext, len(plan.targets))
	var rootID uint64
	if traceID != 0 {
		rootID = obs.RandomID()
		for i := range ctxs {
			ctxs[i] = obs.TraceContext{TraceID: traceID, SpanID: obs.RandomID()}
		}
	}
	// The channel is buffered for the full fan-out, so a leaf answering
	// after its deadline completes its send and exits instead of leaking.
	answers := make(chan leafAnswer, len(plan.targets))
	for i, ft := range plan.targets {
		go func(i int, ft fanTarget) {
			t0 := time.Now()
			res, exec, err := a.leaves[ft.idx].QueryShards(q, ft.shards, ctxs[i])
			ans := leafAnswer{i: i, res: res, exec: exec, err: err, sent: t0, rtt: time.Since(t0)}
			if err == nil {
				ans.shardsOK = len(ft.shards)
			} else {
				ans.res, ans.exec = nil, nil
				if len(ft.shards) > 0 {
					// The planned owner died mid-query (a restart racing the
					// routing snapshot): re-fetch its shards from the next
					// live replica so shard coverage holds through the race.
					if fres, n := a.failover(q, ft); n > 0 {
						ans.res, ans.shardsOK, ans.failedOver = fres, n, true
					}
				}
			}
			answers <- ans
		}(i, ft)
	}

	var deadline <-chan time.Time
	if a.LeafTimeout > 0 {
		tm := time.NewTimer(a.LeafTimeout)
		defer tm.Stop()
		deadline = tm.C
	}
	// Only the collector writes answers and spans, so an abandoned straggler
	// can never race the merge below.
	got := make([]*leafAnswer, len(plan.targets))
	// The trace is its root span, then one span per planned target.
	trace := make(obs.Trace, 1+len(plan.targets))
	spans := trace[1:]
	for i, ft := range plan.targets {
		spans[i] = obs.Span{TraceID: traceID, SpanID: ctxs[i].SpanID, Parent: rootID, Kind: obs.KindQueryLeaf,
			Leaf: a.leafLabel(ft.idx), Table: q.Table, Worker: -1, Shards: ft.shards, Start: start}
	}
	var elapsedAtDeadline time.Duration
collect:
	for received := 0; received < len(plan.targets); received++ {
		select {
		case ans := <-answers:
			got[ans.i] = &ans
			sp := &spans[ans.i]
			sp.Start, sp.Duration = ans.sent, ans.rtt
			if ans.err != nil {
				sp.Err = ans.err.Error()
				if ans.failedOver {
					sp.Err += fmt.Sprintf(" (%d/%d shards failed over to replicas)", ans.shardsOK, len(plan.targets[ans.i].shards))
				}
			} else if sp.Exec = ans.exec; sp.Exec != nil {
				sp.Recovery = sp.Exec.Recovery
			}
		case <-deadline:
			elapsedAtDeadline = time.Since(start)
			break collect
		}
	}
	// Stragglers abandoned at the deadline never reached the collector:
	// their spans record the elapsed time at abandonment. This is the one
	// place abandonment is decided — the merged result, the trace, and the
	// metrics counters below all read the same span state, so coverage can
	// never disagree between __system.traces and the dashboards.
	abandoned := 0
	for i := range spans {
		if got[i] == nil {
			abandoned++
			spans[i].Duration = elapsedAtDeadline
			spans[i].Err = "abandoned at leaf deadline"
		}
	}

	merged := &query.Result{}
	for _, ans := range got {
		if ans == nil || ans.res == nil {
			// Unreachable or abandoned target with no failover: one leaf's
			// worth of data missing (or an unreachable downstream
			// aggregator, counted as one — its subtree size is unknowable
			// here). Its shards, if any, go unanswered.
			merged.LeavesTotal++
			continue
		}
		res := ans.res
		if ans.failedOver {
			// The leaf itself is unanswered, but its shards were re-fetched
			// from replicas: leaf coverage dips, shard coverage holds.
			merged.LeavesTotal++
			res.ShardsTotal, res.ShardsAnswered = 0, 0
			res.LeavesTotal, res.LeavesAnswered = 0, 0
			merged.ShardsAnswered += ans.shardsOK
			merged.Merge(res)
			continue
		}
		if res.LeavesTotal > 0 {
			// The target is itself an aggregator (Scuba runs trees of
			// them): adopt its coverage instead of counting it as one leaf.
			merged.LeavesTotal += res.LeavesTotal
			merged.LeavesAnswered += res.LeavesAnswered
			res.LeavesTotal, res.LeavesAnswered = 0, 0
		} else {
			merged.LeavesTotal++
			merged.LeavesAnswered++
		}
		if plan.sharded {
			// Shard coverage is computed here, from the plan — a leaf's own
			// shard fields (always zero today) must not double-count.
			res.ShardsTotal, res.ShardsAnswered = 0, 0
			merged.ShardsAnswered += ans.shardsOK
		}
		merged.Merge(res)
	}
	if plan.sharded {
		merged.ShardsTotal = plan.shardsTotal
	}
	if r := a.Metrics; r != nil {
		d := time.Since(start)
		r.Counter("query.count").Add(1)
		r.Timer("query.latency").Observe(d)
		r.Histogram("query.latency_hist").ObserveDuration(d)
		r.Counter("query.leaves_total").Add(int64(merged.LeavesTotal))
		r.Counter("query.leaves_answered").Add(int64(merged.LeavesAnswered))
		r.Counter("query.leaves_abandoned").Add(int64(abandoned))
		r.Histogram("query.fanout").Observe(int64(merged.LeavesAnswered))
		if plan.sharded {
			r.Counter("query.shards_total").Add(int64(merged.ShardsTotal))
			r.Counter("query.shards_answered").Add(int64(merged.ShardsAnswered))
			r.Counter("query.shards_unserved").Add(int64(plan.shardsUnserved))
		}
	}
	if a.Tracer != nil && traceID != 0 {
		// Below another aggregator the root hangs under the upstream's leaf
		// span for this subtree.
		trace[0] = obs.Span{TraceID: traceID, SpanID: rootID, Parent: parent.SpanID, Kind: obs.KindQuery,
			Table: q.Table, Worker: -1, Start: start, Duration: time.Since(start), Query: q.String(),
			ShardsTotal: merged.ShardsTotal, ShardsAnswered: merged.ShardsAnswered}
		a.Tracer.Record(trace)
	}
	return merged, nil
}

// failoverPasses bounds how many times failover re-plans still-uncovered
// shards against a fresh shard-map status. One pass handles the common case
// (a draining owner's replica answers); the later passes handle a slow query
// that straddles multiple rollover batches — by the time the replica's
// attempt fails too, the originally-failed leaf is often back ACTIVE, and a
// re-plan against current status recovers the shard instead of dropping it.
const failoverPasses = 3

// failover re-fetches a failed slot's shards from each shard's ACTIVE
// owners, merging whatever the replicas answer. The first pass excludes the
// failed leaf; each later pass re-reads the shard map's status, so an owner
// that came back mid-query is eligible again. It returns the merged partial
// and how many shards it covered. The retry is untraced — the trace shows
// the original span's error, annotated with the failover outcome.
func (a *Aggregator) failover(q *query.Query, ft fanTarget) (*query.Result, int) {
	r := a.Router
	if r == nil {
		return nil, 0
	}
	merged := &query.Result{}
	n := 0
	pending := ft.shards
	exclude := ft.idx
	for pass := 0; pass < failoverPasses && len(pending) > 0; pass++ {
		m, status := r.Map(), r.Status()
		perLeaf := make(map[int][]int)
		unplanned := 0
		for _, s := range pending {
			planned := false
			for _, o := range m.Owners(q.Table, s) {
				if o != exclude && o < len(status) && status[o] == shard.StatusActive {
					perLeaf[o] = append(perLeaf[o], s)
					planned = true
					break
				}
			}
			if !planned {
				unplanned++
			}
		}
		if len(perLeaf) == 0 {
			// No ACTIVE alternative owner right now (mid-batch): the next
			// pass re-reads status, where a restarted owner may be back.
			exclude = -1
			continue
		}
		idxs := make([]int, 0, len(perLeaf))
		for o := range perLeaf {
			idxs = append(idxs, o)
		}
		sort.Ints(idxs)
		failed := make([]int, 0, unplanned)
		for _, o := range idxs {
			if o >= len(a.leaves) {
				failed = append(failed, perLeaf[o]...)
				continue
			}
			res, _, err := a.leaves[o].QueryShards(q, perLeaf[o], obs.TraceContext{})
			if err != nil {
				failed = append(failed, perLeaf[o]...)
				continue
			}
			merged.Merge(res)
			n += len(perLeaf[o])
		}
		for _, s := range pending {
			if !planned(perLeaf, s) {
				failed = append(failed, s)
			}
		}
		pending = failed
		// After the first pass every currently-ACTIVE owner is fair game:
		// the excluded leaf being ACTIVE again means it restarted and serves
		// the restored data.
		exclude = -1
	}
	if n == 0 {
		return nil, 0
	}
	return merged, n
}

// planned reports whether shard s was assigned to any leaf in the plan.
func planned(perLeaf map[int][]int, s int) bool {
	for _, shards := range perLeaf {
		for _, v := range shards {
			if v == s {
				return true
			}
		}
	}
	return false
}

func (a *Aggregator) leafLabel(i int) string {
	if i < len(a.Labels) && a.Labels[i] != "" {
		return a.Labels[i]
	}
	return fmt.Sprintf("leaf%d", i)
}

// NumLeaves returns the configured target count (the fan-out width of an
// unsharded query).
func (a *Aggregator) NumLeaves() int { return len(a.leaves) }
