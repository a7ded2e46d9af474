package main

import (
	"fmt"
	"math/rand"

	"scuba"
)

// Inputs are made from the seed alone: one row generator per table and one
// query mix per client. The system under test only ever sees these rows and
// queries; nothing in it can tell which workload is running.

// dataGen hands out rows of the three paper workloads, one generator per
// table so that a table's event times rise monotonically across every leaf.
type dataGen struct {
	gens map[string]*scuba.Workload
	seq  int64
}

func newDataGen(seed int64) *dataGen {
	return &dataGen{gens: map[string]*scuba.Workload{
		tableLogs:   scuba.ServiceLogs(seed*7919+1, epoch),
		tableErrors: scuba.ErrorEvents(seed*7919+2, epoch),
		tableAds:    scuba.AdsRevenue(seed*7919+3, epoch),
	}}
}

func (g *dataGen) batch(table string, n int) []scuba.Row { return g.gens[table].NextBatch(n) }

// now is the newest event time generated for the table so far.
func (g *dataGen) now(table string) int64 { return g.gens[table].Now() }

// stamped returns service_logs rows carrying a rising int64 "seq" column,
// the handle ingest_fresh uses to tell which append an answer reflects.
func (g *dataGen) stamped(n int) []scuba.Row {
	rows := g.batch(tableLogs, n)
	for i := range rows {
		g.seq++
		rows[i].Cols["seq"] = scuba.Int64(g.seq)
	}
	return rows
}

func hostName(i int) string { return fmt.Sprintf("host-%03d.prn%d", i, i%4+1) }

// Query classes of the dashboard mix.
const (
	classWindow = "window"
	classFilter = "filter"
	classScan   = "scan"
)

var queryClasses = []string{classWindow, classFilter, classScan}

// alignDown rounds an event time down to an oracle bucket boundary.
func alignDown(t int64) int64 { return epoch + (t-epoch)/bucketSeconds*bucketSeconds }

// windowQuery is the dashboard panel: one bucket-aligned slice of time,
// grouped by service, count and integer sum. It prunes to one or two blocks
// per leaf, so wire, aggregator and prune cost dominate.
func windowQuery(from, to int64) *scuba.Query {
	return &scuba.Query{
		Table: tableLogs, From: from, To: to,
		GroupBy:      []string{"service"},
		Aggregations: []scuba.Aggregation{{Op: scuba.AggCount}, {Op: scuba.AggSum, Column: "latency_ms"}},
	}
}

// filterQuery is the point lookup: the whole range, one host of 200.
func filterQuery(from, to int64, host int) *scuba.Query {
	return &scuba.Query{
		Table: tableLogs, From: from, To: to,
		Filters:      []scuba.Filter{{Column: "host", Op: scuba.OpEq, Str: hostName(host)}},
		Aggregations: []scuba.Aggregation{{Op: scuba.AggCount}, {Op: scuba.AggSum, Column: "latency_ms"}},
	}
}

// scanQuery is the heavy report: the whole range, 2400 groups, and enough
// columns that their decoded size exceeds the 32 MB decode cache at 1M rows:
// host, service, cpu_ms and latency_ms decode to 24 B a row and fit, the
// string-set column tags adds 32 B a row and does not.
func scanQuery(from, to int64) *scuba.Query {
	return &scuba.Query{
		Table: tableLogs, From: from, To: to,
		Filters: []scuba.Filter{{Column: "tags", Op: scuba.OpContains, Str: "prod"}},
		GroupBy: []string{"host", "service"},
		Aggregations: []scuba.Aggregation{
			{Op: scuba.AggCount},
			{Op: scuba.AggAvg, Column: "cpu_ms"},
			{Op: scuba.AggP99, Column: "latency_ms"},
		},
	}
}

// countQuery counts every row of a table.
func countQuery(table string) *scuba.Query {
	return &scuba.Query{Table: table, From: 0, To: 1 << 40, Aggregations: []scuba.Aggregation{{Op: scuba.AggCount}}}
}

// maxSeqQuery asks for the newest visible seq at or after from.
func maxSeqQuery(from int64) *scuba.Query {
	return &scuba.Query{Table: tableLogs, From: from, To: 1 << 40,
		Aggregations: []scuba.Aggregation{{Op: scuba.AggMax, Column: "seq"}}}
}

// fingerprintQuery is the float- and percentile-valued answer that must come
// back byte-identical after a restart.
func fingerprintQuery(from int64) *scuba.Query {
	return &scuba.Query{
		Table: tableLogs, From: from, To: 1 << 40,
		GroupBy: []string{"service"},
		Aggregations: []scuba.Aggregation{
			{Op: scuba.AggCount},
			{Op: scuba.AggAvg, Column: "cpu_ms"},
			{Op: scuba.AggP99, Column: "latency_ms"},
		},
	}
}

// queryMix draws the dashboard's seeded query sequence over [from, to]. The
// classes come in shuffled blocks of mixBlock queries that each hold the
// exact percentages, so a run's composition (and with it queries per second)
// does not depend on the seed's luck; the seed picks the order inside a
// block, the window and the host.
type queryMix struct {
	rng        *rand.Rand
	from, to   int64
	window     int64
	numWindows int64
	block      []string // classes of one block, in canonical order
	pending    []string // what is left of the current shuffled block
}

// mixBlock is the smallest block that holds 60/25/15 exactly.
const mixBlock = 20

func newQueryMix(seed, from, to int64) *queryMix {
	from, to = alignDown(from), alignDown(to)+bucketSeconds-1
	w := max((to-from+1)/windowFraction/bucketSeconds, 1) * bucketSeconds
	m := &queryMix{
		rng: rand.New(rand.NewSource(seed)), from: from, to: to, window: w,
		numWindows: max((to-from+1)/w, 1),
	}
	for i := 0; i < mixBlock; i++ {
		switch pct := i * 100 / mixBlock; {
		case pct < mixWindowPct:
			m.block = append(m.block, classWindow)
		case pct < mixWindowPct+mixFilterPct:
			m.block = append(m.block, classFilter)
		default:
			m.block = append(m.block, classScan)
		}
	}
	return m
}

func (m *queryMix) next() (string, *scuba.Query) {
	if len(m.pending) == 0 {
		m.pending = append(m.pending, m.block...)
		m.rng.Shuffle(len(m.pending), func(i, j int) { m.pending[i], m.pending[j] = m.pending[j], m.pending[i] })
	}
	class := m.pending[0]
	m.pending = m.pending[1:]
	return class, m.query(class)
}

// query draws one query of the given class.
func (m *queryMix) query(class string) *scuba.Query {
	switch class {
	case classWindow:
		start := m.from + m.rng.Int63n(m.numWindows)*m.window
		return windowQuery(start, start+m.window-1)
	case classFilter:
		return filterQuery(m.from, m.to, m.rng.Intn(numHosts))
	default:
		return scanQuery(m.from, m.to)
	}
}
