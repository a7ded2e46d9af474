package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scuba"
)

// One topology serves every workload, hosted in this process over real
// loopback TCP: leaves (NewLeaf + NewServer), one aggregator server over
// their addresses, and clients dialled with DialLeaf. An in-process restart
// leaves out exec and the port rebind by a new process; the rollover
// keystone tests cover those.

// run is the state of one workload run.
type run struct {
	workload string
	seed     int64
	seconds  int
	sz       sizes
	tr       *tracer // nil in the untraced run
	dir      string  // scratch root, removed when the run ends
	shmDir   string
	gen      *dataGen
	oracle   *oracle
	speed    *speedometer
	setup    setupClock

	attempted atomic.Int64
	failed    atomic.Int64
	partial   atomic.Int64 // answers with a leaf missing, not failures
	answers   atomic.Int64
	// undercount counts full answers that missed rows sealed mid-query (see
	// checkCount): reported, not failed.
	undercount atomic.Int64

	errMu sync.Mutex
	errs  []string
}

func (r *run) op(n int) { r.attempted.Add(int64(n)) }

// fail counts one failed operation and keeps the first few reasons.
func (r *run) fail(format string, args ...any) {
	r.failed.Add(1)
	r.errMu.Lock()
	if len(r.errs) < 10 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
	r.errMu.Unlock()
}

// setupClock times a workload's set-up. Most of a set-up is making and
// loading rows, which is done in setupRounds equal rounds, each timed: in
// effect the set-up runs several times at a fraction of its size, and
// seconds() counts every round at the median round's length, so that one
// stall of the sandbox does not decide setup_s.
type setupClock struct {
	start  time.Time
	rounds series
}

// round runs and times round i of setupRounds.
func (c *setupClock) round(f func() error) error {
	t0 := time.Now()
	err := f()
	c.rounds.add(time.Since(t0))
	return err
}

func (c *setupClock) seconds() float64 {
	total := ms(time.Since(c.start))
	for _, d := range c.rounds {
		total += median(c.rounds) - d
	}
	return total / 1e3
}

// share is part i of n equal parts of total, the parts summing to total.
func share(total, i, n int) int { return total*(i+1)/n - total*i/n }

// setupDone ends the set-up: it sets setup_s and tells the speedometer that
// measuring starts.
func (r *run) setupDone(m *measures) {
	m.setE2E("setup_s", r.setup.seconds(), len(r.setup.rounds))
	r.speed.mark()
}

// traced reports whether this is the per-layer run.
func (r *run) traced() bool { return r.tr != nil }

// node is one leaf slot: the identity (ID, directories, address) outlives
// the leaf process image.
type node struct {
	id   int
	cfg  scuba.LeafConfig
	addr string

	leaf *scuba.Leaf
	srv  *scuba.Server
	// reg is set only in the traced run, fresh per incarnation, so that
	// restart-phase timers read back per cycle.
	reg *scuba.MetricsRegistry
}

// newNode lays out a leaf slot. Every leaf uses the same configuration; the
// scratch leaf of restart_crash differs only in having no WAL.
func (r *run) newNode(id int, wal bool) *node {
	cfg := scuba.LeafConfig{
		ID:               id,
		Shm:              scuba.ShmOptions{Dir: r.shmDir, Namespace: "bench"},
		DiskRoot:         filepath.Join(r.dir, "disk"),
		WALSyncInterval:  walSyncInterval,
		DecodeCacheBytes: decodeCacheBytes,
		MemoryBudget:     memoryBudget,
	}
	if wal {
		cfg.WALDir = filepath.Join(r.dir, "wal")
	}
	return &node{id: id, cfg: cfg, addr: "127.0.0.1:0"}
}

// start brings up a new incarnation: NewLeaf, Start, NewServer on the slot's
// address (an ephemeral port the first time, the same port afterwards).
// Spans hang off parent when tracing.
func (n *node) start(r *run, instantOn bool, parent *span) error {
	cfg := n.cfg
	cfg.InstantOn = instantOn
	n.reg = nil
	if r.traced() {
		n.reg = scuba.NewMetricsRegistry()
		cfg.Metrics = n.reg
		cfg.Obs = scuba.NewObserver(n.reg, nil)
	}
	sp := parent.child("leaf.new")
	l, err := scuba.NewLeaf(cfg)
	sp.end()
	if err != nil {
		return fmt.Errorf("leaf %d: new: %w", n.id, err)
	}
	sp = parent.child("leaf.start")
	err = l.Start()
	sp.end()
	if err != nil {
		return fmt.Errorf("leaf %d: start: %w", n.id, err)
	}
	sp = parent.child("wire.listen")
	srv, err := scuba.NewServerOn(l, n.addr, n.reg)
	sp.end()
	if err != nil {
		if l.WAL() != nil {
			l.WAL().Close() //nolint:errcheck // giving up on this incarnation
		}
		return fmt.Errorf("leaf %d: serve: %w", n.id, err)
	}
	n.leaf, n.srv, n.addr = l, srv, srv.Addr()
	return nil
}

// stop closes the server; the leaf stays as it is (shut down or abandoned).
func (n *node) stop() {
	if n.srv != nil {
		n.srv.Close() //nolint:errcheck // listener teardown
		n.srv = nil
	}
}

// abandon stands in for a crash: the server's sockets close as they would
// when a process dies, and the leaf is dropped without Shutdown. Closing the
// WAL only stops the dead incarnation's flusher goroutine and file handles;
// every acked row was already fsynced.
func (n *node) abandon() {
	n.stop()
	if n.leaf != nil && n.leaf.WAL() != nil {
		n.leaf.WAL().Close() //nolint:errcheck // see above
	}
	n.leaf = nil
}

// exitProcess stands in for the old process image going away: its heap is
// returned to the OS before the replacement starts. Untimed.
func exitProcess() {
	runtime.GC()
	debug.FreeOSMemory()
}

// cluster is the serving topology of one workload.
type cluster struct {
	nodes []*node
	agg   *scuba.AggServer
	// aggReg is the aggregator's registry (traced run only).
	aggReg *scuba.MetricsRegistry
}

// serve starts the aggregator over the nodes' addresses.
func (r *run) serve(nodes []*node) (*cluster, error) {
	c := &cluster{nodes: nodes}
	addrs := make([]string, len(nodes))
	for i, n := range nodes {
		addrs[i] = n.addr
	}
	if r.traced() {
		c.aggReg = scuba.NewMetricsRegistry()
	}
	agg, err := scuba.NewAggServerOn(addrs, "127.0.0.1:0", c.aggReg)
	if err != nil {
		return nil, err
	}
	c.agg = agg
	return c, nil
}

// close tears the topology down without a clean shutdown; the run's
// directories are removed afterwards.
func (c *cluster) close() {
	if c.agg != nil {
		c.agg.Close() //nolint:errcheck // listener teardown
	}
	for _, n := range c.nodes {
		n.abandon()
	}
}

// query sends one query through the aggregator and classifies the answer:
// an error is a failed operation, an answer with a leaf missing is counted as
// partial and returned with full=false.
func (r *run) query(cl *scuba.Client, q *scuba.Query) (res *scuba.Result, full bool) {
	r.op(1)
	res, err := cl.QueryVia(q)
	if err != nil {
		r.fail("query %s: %v", q.Table, err)
		return nil, false
	}
	r.answers.Add(1)
	if res.LeavesAnswered < res.LeavesTotal {
		r.partial.Add(1)
		return res, false
	}
	return res, true
}

// loadPlan says how many rows of each table each leaf gets.
type loadPlan map[string][]int

// planRows splits per-leaf totals over the tables by restartTableShare.
func planRows(perLeaf []int) loadPlan {
	p := make(loadPlan)
	for _, t := range tableNames {
		for _, n := range perLeaf {
			p[t] = append(p[t], n*restartTableShare[t]/100)
		}
	}
	return p
}

// load generates the plan's rows and adds them to the leaves in process,
// dealing each table's batches to the leaves in proportion, and records them
// in the oracle. One goroutine generates and one ingests per table.
func (r *run) load(leaves []*scuba.Leaf, plan loadPlan) error {
	type item struct {
		leaf int
		rows []scuba.Row
	}
	errc := make(chan error, 2*len(plan))
	var wg sync.WaitGroup
	for table, perLeaf := range plan {
		table, left := table, append([]int(nil), perLeaf...)
		// A few batches of slack let generation and ingest overlap.
		ch := make(chan item, 4)
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer close(ch)
			for {
				// Deal to the leaf with the largest share still owed.
				pick, best := -1, 0.0
				for i, n := range left {
					if f := float64(n) / float64(max(perLeaf[i], 1)); n > 0 && f > best {
						pick, best = i, f
					}
				}
				if pick < 0 {
					return
				}
				n := min(left[pick], loadBatchRows)
				left[pick] -= n
				ch <- item{pick, r.gen.batch(table, n)}
			}
		}()
		go func() {
			defer wg.Done()
			for it := range ch {
				if err := leaves[it.leaf].AddRows(table, it.rows); err != nil {
					errc <- fmt.Errorf("load %s on leaf %d: %w", table, it.leaf, err)
					for range ch { // let the generator finish
					}
					return
				}
				r.oracle.add(it.leaf, table, it.rows)
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errc:
		return err
	default:
		return nil
	}
}

// bulkLoad fills WAL-backed nodes the fast way: a WAL-less incarnation of the
// same slot ingests the rows, shuts down through shared memory, and the real
// configuration restores from it — the system's own restart path as the
// loader. The nodes are left started and serving.
func (r *run) bulkLoad(nodes []*node, plan loadPlan) error {
	loaders := make([]*scuba.Leaf, len(nodes))
	for i, n := range nodes {
		cfg := n.cfg
		cfg.WALDir = ""
		l, err := scuba.NewLeaf(cfg)
		if err != nil {
			return err
		}
		if err := l.Start(); err != nil {
			return err
		}
		loaders[i] = l
	}
	for i := 0; i < setupRounds; i++ {
		part := make(loadPlan, len(plan))
		for table, perLeaf := range plan {
			for _, n := range perLeaf {
				part[table] = append(part[table], share(n, i, setupRounds))
			}
		}
		if err := r.setup.round(func() error { return r.load(loaders, part) }); err != nil {
			return err
		}
	}
	for i, n := range nodes {
		if n.cfg.WALDir == "" {
			// The WAL-less scratch leaf needs no second incarnation.
			if err := loaders[i].SealAll(); err != nil {
				return err
			}
			if _, err := loaders[i].SyncToDisk(); err != nil {
				return err
			}
			srv, err := scuba.NewServer(loaders[i], n.addr)
			if err != nil {
				return err
			}
			n.leaf, n.srv, n.addr = loaders[i], srv, srv.Addr()
			continue
		}
		if _, err := loaders[i].Shutdown(); err != nil {
			return fmt.Errorf("leaf %d: loader shutdown: %w", n.id, err)
		}
		loaders[i] = nil
		if err := n.start(r, false, nil); err != nil {
			return err
		}
		if p := n.leaf.Recovery().Path; p != scuba.RecoveryMemory && r.oracle.rows(i, tableLogs) > 0 {
			return fmt.Errorf("leaf %d: loader restore took path %q", n.id, p)
		}
	}
	exitProcess()
	return nil
}

// leafCounts asks one leaf server for the exact row count of every table
// through a fresh client and compares with the acked rows; it retries until
// they match or the deadline passes, as a client waiting for the leaf would.
func (r *run) leafCounts(n *node, idx int, parent *span) error {
	cl := scuba.DialLeaf(n.addr)
	defer cl.Close()
	deadline := time.Now().Add(30 * time.Second)
	for _, table := range tableNames {
		want := r.oracle.rows(idx, table)
		if want == 0 {
			continue
		}
		q := countQuery(table)
		for {
			sp := parent.child("wire.count")
			res, err := cl.Query(q)
			sp.end()
			if err == nil && int64(singleValue(q, res)) == want {
				break
			}
			if time.Now().After(deadline) {
				if err != nil {
					return fmt.Errorf("leaf %d %s: %w", n.id, table, err)
				}
				return fmt.Errorf("leaf %d %s: %d rows, acked %d", n.id, table, int64(singleValue(q, res)), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// dirBytes sums the sizes of the regular files under root whose names start
// with prefix ("" for all of them).
func dirBytes(root, prefix string) int64 {
	var n int64
	filepath.Walk(root, func(_ string, info os.FileInfo, err error) error { //nolint:errcheck // best-effort du
		if err == nil && info.Mode().IsRegular() && strings.HasPrefix(info.Name(), prefix) {
			n += info.Size()
		}
		return nil
	})
	return n
}

// finish closes every workload the same way: it flushes what is still only
// in the WAL or in memory to its durable home and sets the space metrics
// (bytes on disk and heap bytes per row held by the nodes), reads the
// aggregator's retry counter in a traced run, and requires the shm directory
// to be empty — every restore consumed, every promotion drained.
func (r *run) finish(m *measures, nodes []*node, c *cluster) error {
	var rows, mem int64
	for _, n := range nodes {
		if _, err := n.leaf.SnapshotPass(); err != nil {
			return err
		}
		if _, err := n.leaf.SyncToDisk(); err != nil {
			return err
		}
		st := n.leaf.Stats()
		rows += st.Rows
		mem += st.Bytes
	}
	if rows == 0 {
		return fmt.Errorf("%s: the leaves hold no rows", r.workload)
	}
	disk := dirBytes(filepath.Join(r.dir, "disk"), "") + dirBytes(filepath.Join(r.dir, "wal"), "")
	m.setE2E("disk_bytes_per_row", float64(disk)/float64(rows), 0)
	m.setE2E("mem_bytes_per_row", float64(mem)/float64(rows), 0)
	if r.traced() {
		m.setLayer("rowblock.mem_bytes_per_row", float64(mem)/float64(rows), 0)
		m.setLayer("wire.retries", float64(c.aggReg.Snapshot().Counters["wire.retries"]), 0)
	}
	if ents, err := os.ReadDir(r.shmDir); err == nil && len(ents) > 0 {
		r.fail("%s: %d shm segments left behind, first %s", r.workload, len(ents), ents[0].Name())
	}
	return nil
}

// newestWindow is the start of the window the background queries ask about:
// the newest newestWindowSeconds of service_logs event time generated so far.
func (r *run) newestWindow() int64 {
	return alignDown(r.gen.now(tableLogs)) - newestWindowSeconds
}

// waitPromoted waits until an instant-on restore has moved every block
// heap-side. A promoter that parks a block (it would then be served from shm
// for good) never gets there; after promoteDeadline that is a failed
// operation, not a hang.
func (r *run) waitPromoted(l *scuba.Leaf) {
	deadline := time.Now().Add(promoteDeadline)
	for l.Recovery().ServedFromShm > 0 {
		if time.Now().After(deadline) {
			r.fail("%s: %d blocks still served from shm %v after the restart", r.workload, l.Recovery().ServedFromShm, promoteDeadline)
			return
		}
		time.Sleep(time.Millisecond)
	}
}
