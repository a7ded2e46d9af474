package scuba_test

// End-to-end distributed tracing: run two scubad leaves as real OS
// processes — one restarted through shared memory, one through disk, the
// disk one deliberately delayed with fault injection — put scuba-aggd in
// front, run queries over TCP, and read the assembled traces back from
// __system.traces, where the aggregator's sink keeps them, through the same
// aggregator. The per-leaf spans must explain where each
// leaf's data came from, where its time went, and which leaf made the query
// slow — and the numbers must agree with each leaf's own /metrics.

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"scuba"
	"scuba/internal/obs"
)

// metricCounter extracts "counter <name> <value>" from a /metrics dump
// (-1 when absent).
func metricCounter(body, name string) int64 {
	re := regexp.MustCompile(`(?m)^counter ` + regexp.QuoteMeta(name) + ` (\d+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		return -1
	}
	v, err := strconv.ParseInt(m[1], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// systemTraces reads the spans of __system.traces that pass the filters
// through the aggregator c, as traces, newest first.
func systemTraces(t *testing.T, c *scuba.Client, filters ...scuba.Filter) []scuba.Trace {
	t.Helper()
	q := &scuba.Query{Table: scuba.SystemTracesTable, From: 0, To: 1 << 40, Filters: filters, GroupBy: obs.SpanKeys}
	for _, col := range obs.SpanValues {
		q.Aggregations = append(q.Aggregations, scuba.Aggregation{Op: scuba.AggMax, Column: col})
	}
	res, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	var spans []scuba.Span
	for _, row := range res.Rows(q) {
		spans = append(spans, obs.SpanFromRow(row.Key, row.Values))
	}
	return obs.Traces(spans)
}

// recordingTracer returns a tracer whose observer's span hook keeps every
// trace it files, and what the hook has seen so far, in order.
func recordingTracer(opts scuba.TracerOptions) (*scuba.Tracer, func() []scuba.Trace) {
	var mu sync.Mutex
	var seen []scuba.Trace
	ob := scuba.NewObserver(nil, nil)
	ob.OnSpans(func(tr scuba.Trace) {
		mu.Lock()
		defer mu.Unlock()
		seen = append(seen, tr)
	})
	return ob.Tracer(opts), func() []scuba.Trace {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(seen)
	}
}

func TestDistributedTracingEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping subprocess integration test")
	}
	binDir := t.TempDir()
	leafBin := filepath.Join(binDir, "scubad")
	aggBin := filepath.Join(binDir, "scuba-aggd")
	for _, b := range []struct{ out, pkg string }{
		{leafBin, "./cmd/scubad"},
		{aggBin, "./cmd/scuba-aggd"},
	} {
		build := exec.Command("go", "build", "-o", b.out, b.pkg)
		build.Env = os.Environ()
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", b.pkg, err, out)
		}
	}

	workDir := t.TempDir()
	type leafProc struct {
		id         int
		addr, http string
		extra      []string
		cmd        *exec.Cmd
	}
	leaves := []*leafProc{
		{id: 0, addr: fmt.Sprintf("127.0.0.1:%d", freePort(t)), http: fmt.Sprintf("127.0.0.1:%d", freePort(t))},
		{id: 1, addr: fmt.Sprintf("127.0.0.1:%d", freePort(t)), http: fmt.Sprintf("127.0.0.1:%d", freePort(t))},
	}
	startLeaf := func(lp *leafProc) {
		args := []string{
			"-id", strconv.Itoa(lp.id),
			"-addr", lp.addr,
			"-http", lp.http,
			"-shm-dir", workDir,
			"-namespace", "tracetest",
			"-disk-root", filepath.Join(workDir, fmt.Sprintf("disk%d", lp.id)),
		}
		args = append(args, lp.extra...)
		lp.cmd = exec.Command(leafBin, args...)
		lp.cmd.Stdout = os.Stderr
		lp.cmd.Stderr = os.Stderr
		if err := lp.cmd.Start(); err != nil {
			t.Fatalf("starting leaf %d: %v", lp.id, err)
		}
	}
	waitReady := func(addr string) {
		c := scuba.DialLeaf(addr)
		defer c.Close()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if err := c.Ping(); err == nil {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Fatalf("daemon on %s did not become ready", addr)
	}

	// ---- boot both leaves, load, and restart them on different paths:
	// leaf 0 through shared memory, leaf 1 through disk with every query
	// delayed 200ms by fault injection (the "slow leaf").
	const rowsPerLeaf = 2000
	for _, lp := range leaves {
		startLeaf(lp)
		waitReady(lp.addr)
		c := scuba.DialLeaf(lp.addr)
		gen := scuba.ServiceLogs(int64(17+lp.id), 1700000000)
		if err := c.AddRows("service_logs", gen.NextBatch(rowsPerLeaf)); err != nil {
			t.Fatalf("load leaf %d: %v", lp.id, err)
		}
		if _, err := c.Shutdown(lp.id == 0); err != nil { // leaf 0 shm, leaf 1 disk
			t.Fatalf("shutdown leaf %d: %v", lp.id, err)
		}
		c.Close()
		if err := waitExit(lp.cmd, 10*time.Second); err != nil {
			t.Fatalf("leaf %d did not exit: %v", lp.id, err)
		}
	}
	leaves[1].extra = []string{"-fault", "leaf.query=delay:200ms"}
	for _, lp := range leaves {
		startLeaf(lp)
	}
	defer func() {
		for _, lp := range leaves {
			lp.cmd.Process.Signal(os.Interrupt) //nolint:errcheck
			waitExit(lp.cmd, 10*time.Second)    //nolint:errcheck
		}
	}()
	for _, lp := range leaves {
		waitReady(lp.addr)
	}

	// ---- aggregator over both, with a 100ms fixed slow-query threshold:
	// the delayed leaf guarantees every query is slow. Its sink writes every
	// query's spans into __system.traces through the first leaf.
	aggAddr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	aggHTTP := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	agg := exec.Command(aggBin,
		"-addr", aggAddr,
		"-http", aggHTTP,
		"-leaves", leaves[0].addr+","+leaves[1].addr,
		"-slow-query", "100ms",
		"-telemetry-interval", "200ms",
	)
	agg.Stdout = os.Stderr
	agg.Stderr = os.Stderr
	if err := agg.Start(); err != nil {
		t.Fatalf("starting scuba-aggd: %v", err)
	}
	defer func() {
		agg.Process.Signal(os.Interrupt) //nolint:errcheck
		waitExit(agg, 10*time.Second)    //nolint:errcheck
	}()
	waitReady(aggAddr)

	client := scuba.DialLeaf(aggAddr)
	defer client.Close()

	// Three queries: cold (decodes columns — cache misses), warm (same
	// query — cache hits), and one whose filter no row can match (zone maps
	// prune every sealed block).
	scanQ := &scuba.Query{Table: "service_logs", From: 0, To: 1 << 40,
		GroupBy:      []string{"service"},
		Aggregations: []scuba.Aggregation{{Op: scuba.AggCount}, {Op: scuba.AggSum, Column: "latency_ms"}}}
	pruneQ := &scuba.Query{Table: "service_logs", From: 0, To: 1 << 40,
		Aggregations: []scuba.Aggregation{{Op: scuba.AggCount}},
		Filters:      []scuba.Filter{{Column: "latency_ms", Op: scuba.OpGt, Int: 1 << 40, Float: 1 << 40}}}
	for _, q := range []*scuba.Query{scanQ, scanQ, pruneQ} {
		res, err := client.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.LeavesAnswered != 2 {
			t.Fatalf("coverage %d/2 — delayed leaf must still answer", res.LeavesAnswered)
		}
	}

	// The aggregator's own /metrics carry the trace counters. Read them
	// before the read-backs below, which are traced queries too.
	aggBody := httpGetBody(t, "http://"+aggHTTP+"/metrics")
	if got := metricCounter(aggBody, "trace_count"); got != 3 {
		t.Errorf("aggregator trace.count = %d, want 3", got)
	}
	if got := metricCounter(aggBody, "trace_slow"); got != 3 {
		t.Errorf("aggregator trace.slow = %d, want 3", got)
	}

	// ---- read the traces back from __system.traces once the sink has
	// delivered them (a query of a __system table leaves no spans). Newest
	// first: prune, warm, cold.
	var traces []scuba.Trace
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
		if traces = systemTraces(t, client); len(traces) >= 3 {
			break
		}
	}
	if len(traces) != 3 {
		t.Fatalf("__system.traces holds %d traces, want 3", len(traces))
	}
	pruneT, warmT, coldT := traces[0], traces[1], traces[2]

	wantRecovery := map[string]string{
		leaves[0].addr: "memory",
		leaves[1].addr: "disk",
	}
	spanByLeaf := func(tr scuba.Trace) map[string]*scuba.ExecStats {
		t.Helper()
		if spans := tr.Leaves(); tr.Root().TraceID == 0 || len(spans) != 2 || spans.Answered() != 2 || len(tr) != 3 {
			t.Fatalf("trace incomplete: %+v", tr)
		}
		out := make(map[string]*scuba.ExecStats)
		for _, sp := range tr.Leaves() {
			if sp.Err != "" || sp.Exec == nil || sp.SpanID == 0 || sp.Exec.SpanID != sp.SpanID || sp.Parent != tr.Root().SpanID {
				t.Fatalf("span not answered with exec stats: %+v", sp)
			}
			// The table keeps the round trip in whole microseconds.
			if sp.Duration+time.Microsecond <= time.Duration(sp.Exec.LatencyNanos) {
				t.Errorf("leaf %s RTT %v < leaf latency %dns", sp.Leaf, sp.Duration, sp.Exec.LatencyNanos)
			}
			out[sp.Leaf] = sp.Exec
		}
		return out
	}

	// Cold trace: per-leaf phase timings, rows, recovery source, cache misses.
	var coldRows int64
	for addr, ex := range spanByLeaf(coldT) {
		if ex.Recovery != wantRecovery[addr] {
			t.Errorf("leaf %s recovery = %q, want %q", addr, ex.Recovery, wantRecovery[addr])
		}
		if ex.LatencyNanos <= 0 || ex.DecodeNanos <= 0 || ex.PruneNanos <= 0 || ex.ScanNanos <= 0 {
			t.Errorf("leaf %s cold phases missing: %+v", addr, ex)
		}
		if ex.CacheMisses <= 0 {
			t.Errorf("leaf %s cold query reported no cache misses: %+v", addr, ex)
		}
		coldRows += ex.RowsScanned
	}
	if coldRows != 2*rowsPerLeaf {
		t.Errorf("cold per-span rows sum = %d, want %d", coldRows, 2*rowsPerLeaf)
	}

	// Warm trace: the decode cache answered.
	for addr, ex := range spanByLeaf(warmT) {
		if ex.CacheHits <= 0 {
			t.Errorf("leaf %s warm query reported no cache hits: %+v", addr, ex)
		}
	}

	// Prune trace: zone maps rejected every sealed block on both leaves.
	for addr, ex := range spanByLeaf(pruneT) {
		if ex.BlocksPruned <= 0 {
			t.Errorf("leaf %s pruned no blocks: %+v", addr, ex)
		}
		if ex.RowsScanned != 0 {
			t.Errorf("leaf %s scanned %d rows past an impossible filter", addr, ex.RowsScanned)
		}
	}

	// The delayed leaf is the slowest span of every trace, at >= its 200ms
	// injected delay.
	for _, tr := range traces {
		sp := tr.Slowest()
		if sp.Leaf != leaves[1].addr {
			t.Errorf("slowest span = %+v, want delayed leaf %s", sp, leaves[1].addr)
		} else if sp.Duration < 200*time.Millisecond {
			t.Errorf("delayed leaf RTT = %v, want >= 200ms", sp.Duration)
		}
		if !tr.Root().Slow {
			t.Errorf("trace %d not marked slow despite the delayed leaf", tr.Root().TraceID)
		}
	}

	// ---- the slow roots: the delayed leaf made every query slow.
	slow := systemTraces(t, client, scuba.Filter{Column: "slow", Int: 1})
	if len(slow) != 3 {
		t.Fatalf("slow roots = %d, want 3", len(slow))
	}
	if slow[0].Root().TraceID != pruneT.Root().TraceID {
		t.Errorf("newest slow trace = %d, want %d", slow[0].Root().TraceID, pruneT.Root().TraceID)
	}

	// ---- cross-check against each leaf's own telemetry: the recovery path
	// in /debug/recovery and the counters in /metrics must agree with what
	// the spans reported.
	for _, lp := range leaves {
		var rec scuba.RecoveryDump
		if err := json.Unmarshal([]byte(httpGetBody(t, "http://"+lp.http+"/debug/recovery")), &rec); err != nil {
			t.Fatalf("bad /debug/recovery JSON from leaf %d: %v", lp.id, err)
		}
		r, ok := rec.Recovery.(map[string]any)
		if !ok || r["Path"] != wantRecovery[lp.addr] {
			t.Errorf("leaf %d /debug/recovery path = %v, span said %q", lp.id, rec.Recovery, wantRecovery[lp.addr])
		}

		body := httpGetBody(t, "http://"+lp.http+"/metrics")
		ex := spanByLeaf(pruneT)[lp.addr]
		if got := metricCounter(body, "query_blocks_pruned"); got < ex.BlocksPruned {
			t.Errorf("leaf %d /metrics blocks_pruned = %d, span reported %d", lp.id, got, ex.BlocksPruned)
		}
		cold, warm := spanByLeaf(coldT)[lp.addr], spanByLeaf(warmT)[lp.addr]
		if got := metricCounter(body, "query_decode_cache_misses"); got < cold.CacheMisses {
			t.Errorf("leaf %d /metrics cache misses = %d, cold span reported %d", lp.id, got, cold.CacheMisses)
		}
		if got := metricCounter(body, "query_decode_cache_hits"); got < warm.CacheHits {
			t.Errorf("leaf %d /metrics cache hits = %d, warm span reported %d", lp.id, got, warm.CacheHits)
		}
		if !strings.Contains(body, "gauge runtime_goroutines") || !strings.Contains(body, "gauge runtime_heap_bytes") {
			t.Errorf("leaf %d /metrics missing runtime self-metrics:\n%s", lp.id, body)
		}
	}
}

// TestInProcessClusterSpansCarryExec pins what the one target interface
// gives an in-process cluster: with a tracer on its aggregator, every
// answered leaf span carries the leaf's execution report under the span's
// own ID — sharded and unsharded alike.
func TestInProcessClusterSpansCarryExec(t *testing.T) {
	for _, tc := range []struct {
		name        string
		replication int
	}{{"unsharded", 0}, {"sharded", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := scuba.NewCluster(scuba.ClusterConfig{
				Machines: 2, LeavesPerMachine: 2,
				ShmDir: t.TempDir(), DiskRoot: t.TempDir(), Namespace: "trace-" + tc.name,
				MemoryBudgetPerLeaf: 1 << 30,
				Replication:         tc.replication,
			})
			if err != nil {
				t.Fatal(err)
			}
			place := scuba.NewPlacer(c.Targets(), 1).Place
			if tc.replication > 0 {
				place = c.NewShardedPlacer().Place
			}
			gen := scuba.ErrorEvents(3, 1000)
			for i := 0; i < 8; i++ {
				if _, err := place("error_events", gen.NextBatch(100)); err != nil {
					t.Fatal(err)
				}
			}
			agg := c.NewAggregator()
			tracer, recorded := recordingTracer(scuba.TracerOptions{})
			agg.Tracer = tracer
			q := &scuba.Query{Table: "error_events", From: 0, To: 1 << 40,
				Aggregations: []scuba.Aggregation{{Op: scuba.AggCount}}}
			res, err := agg.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if rows := res.Rows(q); rows[0].Values[0] != 800 {
				t.Fatalf("count = %v, want 800", rows[0].Values[0])
			}
			traces := recorded()
			if len(traces) != 1 || len(traces[0].Leaves()) == 0 {
				t.Fatalf("traces = %+v, want one with spans", traces)
			}
			var rows int64
			for _, sp := range traces[0].Leaves() {
				if sp.Err != "" || sp.Exec == nil || sp.SpanID == 0 || sp.Exec.SpanID != sp.SpanID {
					t.Fatalf("span not answered with its own exec report: %+v", sp)
				}
				if sp.Exec.LatencyNanos <= 0 || sp.Duration.Nanoseconds() < sp.Exec.LatencyNanos {
					t.Errorf("leaf %s latency %dns outside (0, RTT %v]", sp.Leaf, sp.Exec.LatencyNanos, sp.Duration)
				}
				if sp.Exec.ShardsServed != len(sp.Shards) {
					t.Errorf("leaf %s served %d shards, asked for %v", sp.Leaf, sp.Exec.ShardsServed, sp.Shards)
				}
				rows += sp.Exec.RowsScanned
			}
			if rows != 800 {
				t.Errorf("per-span rows sum = %d, want 800", rows)
			}
		})
	}
}
