package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"scuba"
)

// Shared by the two restart workloads: the background prober and the
// per-cycle ingest of fresh rows.

// openLoop calls send(i, due) for i = 0, 1, ... (n calls, or until sleep
// reports a stop when n < 0) on a fixed schedule: call i is due at
// start + i*interval. It sleeps until a call is due, never drops a call when
// it runs late, and returns how late each call started. Latencies are the
// caller's to take from due, so that a stall is charged to every call it
// delays. now and sleep are parameters so the accounting can be tested on a
// fake clock; sleep(d) waits d (not at all when d <= 0) and reports whether
// the loop should stop.
func openLoop(now func() time.Time, sleep func(time.Duration) bool, start time.Time, interval time.Duration, n int, send func(i int, due time.Time)) series {
	var late series
	for i := 0; n < 0 || i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if sleep(due.Sub(now())) {
			break
		}
		late.add(max(now().Sub(due), 0))
		send(i, due)
	}
	return late
}

// sleepOrStop is openLoop's real sleep: it returns true once stop is closed.
func sleepOrStop(stop <-chan struct{}) func(time.Duration) bool {
	return func(d time.Duration) bool {
		if d <= 0 {
			select {
			case <-stop:
				return true
			default:
				return false
			}
		}
		select {
		case <-stop:
			return true
		case <-time.After(d):
			return false
		}
	}
}

// prober sends a window query over the newest rows through the aggregator on
// an open-loop schedule, one connection, one query at a time. Answers with a
// leaf missing are counted as partial, not failed; every answer's row count
// is checked against what had been acked and what had been sent.
type prober struct {
	r        *run
	cl       *scuba.Client
	from     atomic.Int64 // window start, moved forward each cycle
	inflight atomic.Int64 // service_logs rows sent, not yet in the oracle

	lat  series
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

func (r *run) startProber(aggAddr string, from int64) *prober {
	p := &prober{r: r, cl: scuba.DialLeaf(aggAddr), stop: make(chan struct{}), done: make(chan struct{})}
	p.from.Store(from)
	go func() {
		defer close(p.done)
		openLoop(time.Now, sleepOrStop(p.stop), time.Now(), probeInterval, -1, p.probe)
	}()
	return p
}

func (p *prober) probe(_ int, due time.Time) {
	from := p.from.Load()
	q := windowQuery(from, 1<<40)
	busy := p.inflight.Load() > 0
	lower := p.r.oracle.windowCount(from, 1<<40)
	w := p.r.tr.window("probe.query")
	sp := w.child("wire.queryvia")
	res, full := p.r.query(p.cl, q)
	sp.end()
	w.end()
	if res == nil {
		return
	}
	p.lat.add(time.Since(due))
	// Read what is in flight before what has landed, so a batch moving
	// between the two is counted twice rather than not at all.
	inflight := p.inflight.Load()
	landed := p.r.oracle.windowCount(from, 1<<40)
	busy = busy || inflight > 0 || landed != lower
	p.r.checkCount(windowTotal(q, res), lower, landed+inflight, full, busy)
}

// windowTotal sums the counts of a window answer's groups.
func windowTotal(q *scuba.Query, res *scuba.Result) int64 {
	var n int64
	for _, row := range res.Rows(q) {
		n += int64(row.Values[0])
	}
	return n
}

// checkCount judges a row count taken while rows may be arriving: it may not
// exceed what had been sent when the answer came back, and a full answer may
// not fall short of what had been acked when the question was asked.
//
// One shortfall is known and counted apart instead of failed: the query
// executor snapshots a table's sealed blocks and its unsealed tail in two
// steps, so a block that seals between them is in neither and its rows are
// missing from that one answer. It can only happen while rows are arriving
// (busy); the exact per-table counts after every restart and at the end of
// every workload would still catch a row that stays lost.
func (r *run) checkCount(n, lower, upper int64, full, busy bool) {
	switch {
	case n > upper:
		r.fail("%s: counted %d rows, only %d sent", r.workload, n, upper)
	case full && n < lower && busy:
		r.undercount.Add(1)
	case full && n < lower:
		r.fail("%s: counted %d rows, %d acked", r.workload, n, lower)
	}
}

// finish stops the prober (once; it is also deferred for the error paths)
// and returns its latencies.
func (p *prober) finish() series {
	p.once.Do(func() {
		close(p.stop)
		<-p.done
		p.cl.Close()
	})
	return p.lat
}

// freshRows is one cycle's rows, generated before the cycle is timed.
type freshRows map[string][][]scuba.Row

func (r *run) freshRows(total int) freshRows {
	out := make(freshRows)
	for _, t := range tableNames {
		for left := total * restartTableShare[t] / 100; left > 0; left -= loadBatchRows {
			out[t] = append(out[t], r.gen.batch(t, min(left, loadBatchRows)))
		}
	}
	return out
}

// cycleIngest sends one cycle's fresh rows to a leaf server from two
// generator threads, one connection each (service_logs on one, the other two
// tables on the other), and returns the rows sent and the wall time. Every
// batch is an operation; a batch the leaf refuses is a failed one.
func (r *run) cycleIngest(n *node, idx int, fresh freshRows, p *prober, parent *span) (int, time.Duration) {
	var rows atomic.Int64
	send := func(tables ...string) {
		cl := scuba.DialLeaf(n.addr)
		defer cl.Close()
		for _, t := range tables {
			for _, b := range fresh[t] {
				r.op(1)
				if t == tableLogs && p != nil {
					p.inflight.Add(int64(len(b)))
				}
				sp := parent.child("wire.addrows")
				err := cl.AddRows(t, b)
				sp.end()
				if err == nil {
					r.oracle.add(idx, t, b)
					rows.Add(int64(len(b)))
				} else {
					r.fail("%s: leaf %d refused a batch of %s: %v", r.workload, n.id, t, err)
				}
				if t == tableLogs && p != nil {
					p.inflight.Add(-int64(len(b)))
				}
			}
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); send(tableLogs) }()
	go func() { defer wg.Done(); send(tableErrors, tableAds) }()
	wg.Wait()
	return int(rows.Load()), time.Since(start)
}

// fingerprint asks one leaf server for the float- and percentile-valued
// answer over its newest rows and requires it to equal, bit for bit, the
// answer recorded under key (the one taken before the restart).
func (r *run) fingerprint(n *node, key string, from int64) error {
	cl := scuba.DialLeaf(n.addr)
	defer cl.Close()
	q := fingerprintQuery(from)
	r.op(1)
	res, err := cl.Query(q)
	if err != nil {
		return fmt.Errorf("fingerprint: %w", err)
	}
	return r.oracle.checkSame(key, res.Rows(q))
}

// phaseTimers snapshots an incarnation's registry once and returns a reader
// of its restart-phase timers' totals in milliseconds (0 for a phase that
// never ran).
func phaseTimers(reg *scuba.MetricsRegistry) func(name string) float64 {
	timers := reg.Snapshot().Timers
	return func(name string) float64 { return ms(timers[name].Total) }
}

// mbPerS is bytes over milliseconds in MB/s (0 when no time passed).
func mbPerS(bytes int64, ms float64) float64 {
	if ms <= 0 {
		return 0
	}
	return float64(bytes) / (1 << 20) / (ms / 1e3)
}

// setMedian sets a per-layer metric to a series' median when it has samples.
func (m *measures) setMedian(name string, s []float64) {
	if len(s) > 0 {
		m.setLayer(name, median(s), len(s))
	}
}
