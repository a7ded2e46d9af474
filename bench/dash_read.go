package main

import (
	"fmt"
	"runtime"
	"time"

	"scuba"
)

// dash_read is the paper's dashboards: DashRowsPerLeaf sealed rows of
// service_logs on each of two leaves, no writes, and one closed-loop client
// (it sends its next query when the previous answer arrives) drawing a seeded
// mix through the aggregator. The scan layer does most of
// the work in the scan class and almost none in the window class.

// classTally sums the work counters the aggregator's answers carry.
type classTally struct {
	scanned, pruned, skipped int64
	hits, misses             int64
}

func (t *classTally) add(res *scuba.Result) {
	t.scanned += res.BlocksScanned
	t.pruned += res.BlocksPruned
	t.skipped += res.BlocksSkipped
	t.hits += res.CacheHits
	t.misses += res.CacheMisses
}

// checkClass verifies one dashboard answer against the oracle.
func (r *run) checkClass(class string, q *scuba.Query, res *scuba.Result) {
	var err error
	switch class {
	case classWindow:
		err = r.oracle.checkWindow(q, res)
	case classFilter:
		err = r.oracle.checkFilter(q, res)
	case classScan:
		err = r.oracle.checkScan("scan", q, res)
	}
	if err != nil {
		r.fail("%v", err)
	}
}

func dashRead(r *run) (*measures, error) {
	m := newMeasures()
	nodes := []*node{r.newNode(0, true), r.newNode(1, true)}
	if err := r.bulkLoad(nodes, loadPlan{tableLogs: {r.sz.DashRowsPerLeaf, r.sz.DashRowsPerLeaf}}); err != nil {
		return nil, err
	}
	c, err := r.serve(nodes)
	if err != nil {
		return nil, err
	}
	defer c.close()
	from, to := epoch, r.gen.now(tableLogs)
	cl := scuba.DialLeaf(c.agg.Addr())
	defer cl.Close()
	// Let the connection open and the decode cache fill before timing: every
	// class once, checked like any other answer.
	warm := newQueryMix(r.seed, from, to)
	for _, class := range queryClasses {
		q := warm.query(class)
		if res, full := r.query(cl, q); full {
			r.checkClass(class, q, res)
		}
	}
	r.setupDone(m)

	all := series{}
	byClass := map[string]*series{classWindow: {}, classFilter: {}, classScan: {}}
	var tally classTally
	mix := newQueryMix(r.seed*31+1, from, to)
	start := time.Now()
	deadline := start.Add(time.Duration(r.seconds) * time.Second)
	// Whole blocks of the mix only, so that every run holds the classes in
	// exactly 60/25/15 and queries per second means the same in each.
	for time.Now().Before(deadline) {
		for i := 0; i < mixBlock; i++ {
			class, q := mix.next()
			w := r.tr.window("client.query." + class)
			sp := w.child("wire.queryvia")
			t0 := time.Now()
			res, full := r.query(cl, q)
			d := time.Since(t0)
			sp.end()
			w.end()
			if res == nil {
				continue
			}
			if !full {
				r.fail("dash_read: partial answer with every leaf up")
				continue
			}
			r.checkClass(class, q, res)
			all.add(d)
			byClass[class].add(d)
			tally.add(res)
		}
	}
	elapsed := time.Since(start)

	// The median over the whole mix sits where the window class ends and the
	// filter class begins, so it does not repeat from run to run; the
	// per-class medians do. The heavy scan class is the primary timing, the
	// pruned, cache-friendly window class its contrast.
	m.setE2E("primary_ms", m.report("query.scan", *byClass[classScan]), len(*byClass[classScan]))
	m.setE2E("secondary_ms", m.report("query.window", *byClass[classWindow]), len(*byClass[classWindow]))
	m.report("query.filter", *byClass[classFilter])
	m.report("query", all)
	m.setE2E("query_p95_ms", percentile(all, 95), len(all))
	m.setE2E("throughput_per_s", float64(len(all))/elapsed.Seconds(), len(all))
	if err := r.finish(m, nodes, c); err != nil {
		return nil, err
	}
	m.note("dash_read: one closed-loop client, %d rows of %s per leaf, mix %d/%d/%d window/filter/scan",
		r.sz.DashRowsPerLeaf, tableLogs, mixWindowPct, mixFilterPct, 100-mixWindowPct-mixFilterPct)

	if r.traced() {
		for _, class := range queryClasses {
			m.setLayer("client.query_ms."+class, median(*byClass[class]), len(*byClass[class]))
		}
		if blocks := tally.scanned + tally.pruned + tally.skipped; blocks > 0 {
			m.setLayer("query.pruned_ratio", float64(tally.pruned+tally.skipped)/float64(blocks), 0)
		}
		if look := tally.hits + tally.misses; look > 0 {
			m.setLayer("query.cache_hit_ratio", float64(tally.hits)/float64(look), 0)
		}
		if err := r.queryLayerProbes(m, c, from, to); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// queryLayerProbes measures one query of each class the three ways the
// layers can be told apart from outside: in process on each leaf
// (QueryTraced, with its ExecStats), over the wire to each leaf server, and
// through the aggregator. The differences are the wire and aggregator
// overheads.
func (r *run) queryLayerProbes(m *measures, c *cluster, from, to int64) error {
	agg := scuba.DialLeaf(c.agg.Addr())
	defer agg.Close()
	direct := make([]*scuba.Client, len(c.nodes))
	for i, n := range c.nodes {
		direct[i] = scuba.DialLeaf(n.addr)
		defer direct[i].Close()
	}
	mix := newQueryMix(r.seed+977, from, to)
	var scanNanos, scanRows int64
	for _, class := range queryClasses {
		q := mix.query(class)
		var inproc, rpc, via, prune, decode, scan, merge series
		var allocs uint64
		for rep := 0; rep < r.sz.LayerProbeReps; rep++ {
			w := r.tr.root("probe." + class)
			var slowestRPC time.Duration
			for i, n := range c.nodes {
				tc := scuba.TraceContext{TraceID: scuba.NewTraceSpanID(), SpanID: scuba.NewTraceSpanID()}
				var before, after runtime.MemStats
				if class == classScan {
					runtime.ReadMemStats(&before)
				}
				sp := w.child("leaf.query")
				t0 := time.Now()
				_, st, err := n.leaf.QueryTraced(q, tc)
				inproc.add(time.Since(t0))
				sp.end()
				if err != nil {
					return fmt.Errorf("probe %s in process: %w", class, err)
				}
				if class == classScan {
					runtime.ReadMemStats(&after)
					allocs += after.Mallocs - before.Mallocs
					scanNanos += st.ScanNanos
					scanRows += st.RowsScanned
				}
				prune.add(time.Duration(st.PruneNanos))
				decode.add(time.Duration(st.DecodeNanos))
				scan.add(time.Duration(st.ScanNanos))
				merge.add(time.Duration(st.MergeNanos))

				sp = w.child("wire.query")
				t0 = time.Now()
				_, _, err = direct[i].QueryTraced(q, tc)
				d := time.Since(t0)
				sp.end()
				if err != nil {
					return fmt.Errorf("probe %s over the wire: %w", class, err)
				}
				rpc.add(d)
				slowestRPC = max(slowestRPC, d)
			}
			sp := w.child("aggregator.query")
			t0 := time.Now()
			_, err := agg.QueryVia(q)
			d := time.Since(t0)
			sp.end()
			w.end()
			if err != nil {
				return fmt.Errorf("probe %s through the aggregator: %w", class, err)
			}
			// Both leaves hold the same amount of data, so the slowest leaf
			// RPC of this repetition stands for the one the aggregator
			// waited for.
			via.add(d - slowestRPC)
		}
		n := len(inproc)
		m.setLayer("leaf.query_ms."+class, median(inproc), n)
		m.setLayer("query.prune_ms."+class, median(prune), n)
		m.setLayer("query.decode_ms."+class, median(decode), n)
		m.setLayer("query.scan_ms."+class, median(scan), n)
		m.setLayer("query.merge_ms."+class, median(merge), n)
		m.setLayer("wire.query_overhead_ms."+class, median(rpc)-median(inproc), n)
		m.setLayer("aggregator.overhead_ms."+class, median(via), len(via))
		if class == classScan {
			m.setLayer("leaf.allocs_per_query.scan", float64(allocs)/float64(n), n)
		}
	}
	if scanRows > 0 {
		m.setLayer("query.scan_ns_per_row", float64(scanNanos)/float64(scanRows), 0)
	}
	return nil
}
