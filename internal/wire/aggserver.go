package wire

import (
	"fmt"
	"time"

	"scuba/internal/aggregator"
	"scuba/internal/metrics"
	"scuba/internal/query"
	"scuba/internal/shard"
)

// AggServer exposes an aggregator over TCP: each machine runs one
// aggregator server next to its eight leaf servers (§2, Figure 1). Clients
// send ordinary query requests; the aggregator distributes them to every
// leaf and merges the partial results.
type AggServer struct {
	rpcServer
	agg *aggregator.Aggregator
}

// NewAggServer starts an aggregator server over the given leaf addresses.
func NewAggServer(leafAddrs []string, addr string) (*AggServer, error) {
	return NewAggServerOn(leafAddrs, addr, nil)
}

// NewAggServerOn is NewAggServer with a caller-owned metrics registry wired
// into the aggregator (nil leaves it uninstrumented), so the daemon's
// /metrics endpoint shows query latency and fan-out coverage.
func NewAggServerOn(leafAddrs []string, addr string, reg *metrics.Registry) (*AggServer, error) {
	targets := make([]aggregator.LeafTarget, len(leafAddrs))
	for i, a := range leafAddrs {
		// The registry rides into each leaf client so retry storms during a
		// rollover land in wire.retries / wire.retry_exhausted.
		targets[i] = DialOptions(a, Options{Metrics: reg})
	}
	agg := aggregator.New(targets)
	agg.Metrics = reg
	agg.Labels = append([]string(nil), leafAddrs...)
	return NewAggServerOver(agg, addr)
}

// NewAggServerOver serves an existing aggregator (tests inject in-process
// leaves this way).
func NewAggServerOver(agg *aggregator.Aggregator, addr string) (*AggServer, error) {
	s := &AggServer{agg: agg}
	if err := s.listen(addr, s.handle); err != nil {
		return nil, err
	}
	return s, nil
}

// Aggregator returns the underlying aggregator so callers can tune fan-out
// behavior (e.g. LeafTimeout) before traffic arrives.
func (s *AggServer) Aggregator() *aggregator.Aggregator { return s.agg }

func (s *AggServer) handle(req *Request) (*Response, func()) {
	var resp Response
	switch req.Kind {
	case KindPing:
	case KindQuery:
		start := time.Now()
		err := tooOld(req)
		var res *query.Result
		if err == nil {
			res, err = s.agg.QueryTraced(req.Query, req.Trace)
		}
		if err == nil {
			resp.Frame, err = res.AppendFrame(nil)
		}
		if err != nil {
			resp = Response{Err: err.Error()}
			if r := s.agg.Metrics; r != nil {
				r.Counter("rpc.errors").Add(1)
			}
		} else if req.Trace.TraceID != 0 {
			// In an aggregator tree the upstream's span for this server
			// covers the whole subtree: report the summed phases of every
			// leaf below (no single recovery source) and the subtree's
			// wall time.
			resp.Exec = res.ExecStats(req.Trace.SpanID, req.Query.Table, "", time.Since(start), 0)
		}
	case KindLeafStatus:
		if s.agg.Router == nil {
			resp.Err = "wire: aggregator is not shard-routing"
		} else if err := s.agg.Router.SetStatusByName(req.LeafName, shard.Status(req.LeafStatus)); err != nil {
			resp.Err = err.Error()
		}
	case KindShardMap:
		if s.agg.Router == nil {
			resp.Err = "wire: aggregator is not shard-routing"
		} else if b, err := s.agg.Router.Map().Encode(); err != nil {
			resp.Err = err.Error()
		} else {
			resp.ShardMap = b
			for _, st := range s.agg.Router.Status() {
				resp.LeafStatuses = append(resp.LeafStatuses, uint8(st))
			}
			resp.MapVersion = s.agg.Router.Version()
		}
	default:
		resp.Err = fmt.Sprintf("wire: aggregator does not handle request kind %d", req.Kind)
	}
	return &resp, nil
}

// QueryVia sends one query to a remote aggregator and returns the merged
// result. It is what CLIs and dashboards use instead of fanning out to
// leaves themselves.
func (c *Client) QueryVia(q *query.Query) (*query.Result, error) {
	return c.Query(q) // same request shape; the server side differs
}

// ShardRouting builds a shard router over the aggregator's leaves and turns
// on shard routing: leaf i is named leafAddrs[i] (the routing identity the
// rollover orchestrator flips statuses by) on machine machines[i] (nil =
// every leaf on its own machine). Call before traffic arrives.
func ShardRouting(agg *aggregator.Aggregator, leafAddrs []string, machines []int, replication, numShards int) *shard.Router {
	leaves := make([]shard.Leaf, len(leafAddrs))
	for i, a := range leafAddrs {
		m := i
		if i < len(machines) {
			m = machines[i]
		}
		leaves[i] = shard.Leaf{Name: a, Machine: m}
	}
	r := shard.NewRouter(shard.NewMap(leaves, replication, numShards))
	agg.Router = r
	return r
}

// SetLeafStatus asks a shard-routing aggregator to flip one leaf's status —
// the rollover orchestrator's drain/reactivate RPC.
func (c *Client) SetLeafStatus(leafName string, st shard.Status) error {
	_, err := c.Call(&Request{Kind: KindLeafStatus, LeafName: leafName, LeafStatus: uint8(st)})
	return err
}

// ShardMap fetches a shard-routing aggregator's map and live per-leaf
// statuses (index-parallel to the map's leaves) plus the router version.
func (c *Client) ShardMap() (*shard.Map, []shard.Status, int64, error) {
	resp, err := c.Call(&Request{Kind: KindShardMap})
	if err != nil {
		return nil, nil, 0, err
	}
	m, err := shard.Decode(resp.ShardMap)
	if err != nil {
		return nil, nil, 0, err
	}
	sts := make([]shard.Status, len(resp.LeafStatuses))
	for i, b := range resp.LeafStatuses {
		sts[i] = shard.Status(b)
	}
	return m, sts, resp.MapVersion, nil
}
