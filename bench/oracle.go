package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"sync"

	"scuba"
)

// The oracle is the benchmark's own record of what the system was given.
// While rows are generated it keeps, for service_logs, a count and an integer
// sum of latency_ms per (time bucket, service), per host and a count per
// (host, service); for every table it keeps the acked row count per leaf.
// Counts and integer sums are exact in float64, so window, filter and count
// answers are checked for equality. Averages and percentiles are not
// recomputed; they must instead be byte-identical whenever the same data is
// asked the same question (across repeats and across every restart).

type cell struct{ n, sum int64 }

type oracle struct {
	mu       sync.Mutex
	svcIdx   map[string]int
	svcNames []string
	buckets  [][]cell // [bucket][service]
	hosts    [numHosts]cell
	hostSvc  [numHosts][]int64 // [host][service] row count
	leafRows []map[string]int64
	// unserved marks leaves the aggregator does not fan out to: their rows
	// count toward the per-leaf totals only.
	unserved map[int]bool
	// prints holds the first answer hash seen per fingerprint key.
	prints map[string]uint64
}

func newOracle(leaves int) *oracle {
	o := &oracle{svcIdx: make(map[string]int), prints: make(map[string]uint64), unserved: make(map[int]bool)}
	for i := 0; i < leaves; i++ {
		o.leafRows = append(o.leafRows, make(map[string]int64))
	}
	return o
}

func hostIndex(name string) int {
	if len(name) < 8 {
		return 0
	}
	i, _ := strconv.Atoi(name[5:8])
	return i % numHosts
}

func (o *oracle) service(name string) int {
	i, ok := o.svcIdx[name]
	if !ok {
		i = len(o.svcNames)
		o.svcIdx[name] = i
		o.svcNames = append(o.svcNames, name)
	}
	return i
}

func growCells(c []cell, n int) []cell {
	for len(c) <= n {
		c = append(c, cell{})
	}
	return c
}

// add records rows the system has acked for one leaf.
func (o *oracle) add(leaf int, table string, rows []scuba.Row) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.leafRows[leaf][table] += int64(len(rows))
	if table != tableLogs || o.unserved[leaf] {
		return
	}
	for _, r := range rows {
		s := o.service(r.Cols["service"].Str)
		h := hostIndex(r.Cols["host"].Str)
		lat := r.Cols["latency_ms"].Int
		b := int((r.Time - epoch) / bucketSeconds)
		for len(o.buckets) <= b {
			o.buckets = append(o.buckets, nil)
		}
		o.buckets[b] = growCells(o.buckets[b], s)
		o.buckets[b][s].n++
		o.buckets[b][s].sum += lat
		o.hosts[h].n++
		o.hosts[h].sum += lat
		for len(o.hostSvc[h]) <= s {
			o.hostSvc[h] = append(o.hostSvc[h], 0)
		}
		o.hostSvc[h][s]++
	}
}

// rows returns the acked row count of a table on one leaf.
func (o *oracle) rows(leaf int, table string) int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.leafRows[leaf][table]
}

// bucketRange maps a bucket-aligned time range to bucket indexes, clipped to
// the buckets that exist.
func (o *oracle) bucketRange(from, to int64) (int, int) {
	b0 := int(max(from-epoch, 0) / bucketSeconds)
	b1 := len(o.buckets) - 1
	if t := (to - epoch) / bucketSeconds; t < int64(b1) {
		b1 = int(t)
	}
	return b0, b1
}

// windowCount is the number of acked service_logs rows in [from, to].
func (o *oracle) windowCount(from, to int64) int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	var n int64
	b0, b1 := o.bucketRange(from, to)
	for b := b0; b <= b1; b++ {
		for _, c := range o.buckets[b] {
			n += c.n
		}
	}
	return n
}

// checkWindow compares a window answer, group by group, with the oracle.
func (o *oracle) checkWindow(q *scuba.Query, res *scuba.Result) error {
	o.mu.Lock()
	want := make([]cell, len(o.svcNames))
	b0, b1 := o.bucketRange(q.From, q.To)
	for b := b0; b <= b1; b++ {
		for s, c := range o.buckets[b] {
			want[s].n += c.n
			want[s].sum += c.sum
		}
	}
	idx := o.svcIdx
	o.mu.Unlock()
	groups := 0
	for _, c := range want {
		if c.n > 0 {
			groups++
		}
	}
	rows := res.Rows(q)
	if len(rows) != groups {
		return fmt.Errorf("window [%d,%d]: %d groups, want %d", q.From, q.To, len(rows), groups)
	}
	for _, r := range rows {
		s, ok := idx[r.Key[0]]
		if !ok || int64(r.Values[0]) != want[s].n || int64(r.Values[1]) != want[s].sum {
			return fmt.Errorf("window [%d,%d] %v: got %v, want %+v", q.From, q.To, r.Key, r.Values, want[s])
		}
	}
	return nil
}

// checkFilter compares a host-filter answer with the oracle.
func (o *oracle) checkFilter(q *scuba.Query, res *scuba.Result) error {
	o.mu.Lock()
	want := o.hosts[hostIndex(q.Filters[0].Str)]
	o.mu.Unlock()
	var got cell
	if rows := res.Rows(q); len(rows) > 0 {
		got = cell{int64(rows[0].Values[0]), int64(rows[0].Values[1])}
	}
	if got != want {
		return fmt.Errorf("filter %s: got %+v, want %+v", q.Filters[0].Str, got, want)
	}
	return nil
}

// checkScan compares the counts of a (host, service) scan with the oracle and
// requires the whole answer, averages and percentiles included, to hash the
// same as the first answer recorded under key.
func (o *oracle) checkScan(key string, q *scuba.Query, res *scuba.Result) error {
	rows := res.Rows(q)
	o.mu.Lock()
	groups := 0
	for h := range o.hostSvc {
		for _, n := range o.hostSvc[h] {
			if n > 0 {
				groups++
			}
		}
	}
	var bad error
	for _, r := range rows {
		h := hostIndex(r.Key[0])
		s, ok := o.svcIdx[r.Key[1]]
		if !ok || s >= len(o.hostSvc[h]) || int64(r.Values[0]) != o.hostSvc[h][s] {
			bad = fmt.Errorf("scan %v: count %v does not match the oracle", r.Key, r.Values[0])
			break
		}
	}
	o.mu.Unlock()
	if bad != nil {
		return bad
	}
	if len(rows) != groups {
		return fmt.Errorf("scan: %d groups, want %d", len(rows), groups)
	}
	return o.checkSame(key, rows)
}

// checkSame requires rows to hash the same as the first rows seen under key.
func (o *oracle) checkSame(key string, rows []scuba.ResultRow) error {
	h := hashRows(rows)
	o.mu.Lock()
	defer o.mu.Unlock()
	if first, ok := o.prints[key]; ok && first != h {
		return fmt.Errorf("%s: answer changed (%x, first %x)", key, h, first)
	}
	o.prints[key] = h
	return nil
}

// forget drops a fingerprint whose data is about to change.
func (o *oracle) forget(key string) {
	o.mu.Lock()
	delete(o.prints, key)
	o.mu.Unlock()
}

// hashRows hashes finalized result rows: keys and the exact bits of every
// value, in result order.
func hashRows(rows []scuba.ResultRow) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, r := range rows {
		for _, k := range r.Key {
			h.Write([]byte(k))
			h.Write([]byte{0})
		}
		for _, v := range r.Values {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// singleValue returns the first value of a one-group answer (0 when empty).
func singleValue(q *scuba.Query, res *scuba.Result) float64 {
	if rows := res.Rows(q); len(rows) > 0 && len(rows[0].Values) > 0 {
		return rows[0].Values[0]
	}
	return 0
}
