package scuba_test

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"scuba"
)

// TestDaemonUpgradeCycle is the paper's scenario against the real daemon:
// build scubad, run it as a separate OS process, load data over TCP, issue
// the shutdown RPC (the process drains to shared memory files and exits),
// start a second process on the same identity, and verify it recovered from
// shared memory with all data intact.
func TestDaemonUpgradeCycle(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping subprocess integration test")
	}
	bin := filepath.Join(t.TempDir(), "scubad")
	build := exec.Command("go", "build", "-o", bin, "./cmd/scubad")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building scubad: %v\n%s", err, out)
	}

	workDir := t.TempDir()
	port := freePort(t)
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	startDaemon := func() *exec.Cmd {
		cmd := exec.Command(bin,
			"-id", "0",
			"-addr", addr,
			"-shm-dir", workDir,
			"-namespace", "itest",
			"-disk-root", filepath.Join(workDir, "disk"),
		)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting scubad: %v", err)
		}
		return cmd
	}
	waitReady := func(c *scuba.Client) {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if err := c.Ping(); err == nil {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Fatal("daemon did not become ready")
	}

	// ---- old process ----
	oldProc := startDaemon()
	client := scuba.DialLeaf(addr)
	defer client.Close()
	waitReady(client)

	gen := scuba.ServiceLogs(11, 1700000000)
	const rows = 50000
	for sent := 0; sent < rows; sent += 5000 {
		if err := client.AddRows("service_logs", gen.NextBatch(5000)); err != nil {
			t.Fatalf("load: %v", err)
		}
	}
	q := &scuba.Query{Table: "service_logs", From: 0, To: 1 << 40,
		Aggregations: []scuba.Aggregation{{Op: scuba.AggCount}, {Op: scuba.AggSum, Column: "latency_ms"}},
		GroupBy:      []string{"service"}}
	before, err := client.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	beforeRows := before.Rows(q)
	if len(beforeRows) == 0 {
		t.Fatal("no data before upgrade")
	}

	info, err := client.Shutdown(true)
	if err != nil {
		t.Fatalf("shutdown RPC: %v", err)
	}
	if !info.ToShm || info.BytesCopied == 0 {
		t.Fatalf("shutdown info = %+v", info)
	}
	if err := waitExit(oldProc, 10*time.Second); err != nil {
		t.Fatalf("old daemon did not exit: %v", err)
	}

	// ---- new process (the "upgraded binary") ----
	newProc := startDaemon()
	defer func() {
		newProc.Process.Signal(os.Interrupt) //nolint:errcheck
		waitExit(newProc, 10*time.Second)    //nolint:errcheck
	}()
	client2 := scuba.DialLeaf(addr)
	defer client2.Close()
	waitReady(client2)

	st, err := client2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows == 0 {
		t.Fatal("new daemon has no rows: memory recovery failed")
	}
	after, err := client2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	afterRows := after.Rows(q)
	if len(afterRows) != len(beforeRows) {
		t.Fatalf("groups %d -> %d across upgrade", len(beforeRows), len(afterRows))
	}
	for i := range beforeRows {
		for j := range beforeRows[i].Values {
			if beforeRows[i].Values[j] != afterRows[i].Values[j] {
				t.Errorf("group %v value %d: %v -> %v",
					beforeRows[i].Key, j, beforeRows[i].Values[j], afterRows[i].Values[j])
			}
		}
	}
}

func freePort(t *testing.T) int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port
}

func waitExit(cmd *exec.Cmd, timeout time.Duration) error {
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		_ = err // non-zero exits are fine; we only need the process gone
		return nil
	case <-time.After(timeout):
		cmd.Process.Kill() //nolint:errcheck
		return fmt.Errorf("timeout after %v", timeout)
	}
}

// TestPipelineEndToEnd drives the full Figure 1 data flow in-process:
// products log to Scribe, tailers place batches on cluster leaves with
// two-random-choice, aggregators answer queries — while a rollover upgrades
// every leaf mid-stream.
func TestPipelineEndToEnd(t *testing.T) {
	c, err := scuba.NewCluster(scuba.ClusterConfig{
		Machines:            2,
		LeavesPerMachine:    4,
		ShmDir:              t.TempDir(),
		DiskRoot:            t.TempDir(),
		Namespace:           "e2e",
		MemoryBudgetPerLeaf: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	bus := scuba.NewBus(0)
	placer := scuba.NewPlacer(c.Targets(), 5)
	tl := scuba.NewTailer(scuba.TailerConfig{Category: "error_events", BatchRows: 250}, bus, placer, 0)
	agg := c.NewAggregator()

	gen := scuba.ErrorEvents(9, 1700000000)
	produce := func(n int) {
		for i := 0; i < n; i++ {
			payload, err := scuba.EncodeRow(gen.Next())
			if err != nil {
				t.Fatal(err)
			}
			bus.Append("error_events", payload)
		}
		if _, err := tl.DrainOnce(); err != nil {
			t.Fatal(err)
		}
	}

	produce(10000)
	q := &scuba.Query{Table: "error_events", From: 0, To: 1 << 40,
		Aggregations: []scuba.Aggregation{{Op: scuba.AggCount}},
		GroupBy:      []string{"product"}}
	res, err := agg.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, r := range res.Rows(q) {
		total += r.Values[0]
	}
	if total != 10000 {
		t.Fatalf("count before rollover = %v", total)
	}

	// Upgrade the whole cluster while more data streams in.
	rep, err := c.Rollover(scuba.RolloverConfig{BatchFraction: 0.25, UseShm: true, TargetVersion: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Recoveries[scuba.RecoveryDisk]; got != 0 {
		t.Errorf("unexpected disk recoveries: %d", got)
	}
	produce(5000)

	res2, err := agg.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	total = 0
	for _, r := range res2.Rows(q) {
		total += r.Values[0]
	}
	if total != 15000 {
		t.Fatalf("count after rollover = %v", total)
	}
	if res2.Coverage() != 1 {
		t.Errorf("coverage = %v", res2.Coverage())
	}
}

// TestDaemonRejectsWALWithoutDiskRoot: a WAL with no image store to be
// truncated behind cannot work, so scubad exits with the leaf's named error
// instead of starting.
func TestDaemonRejectsWALWithoutDiskRoot(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping subprocess integration test")
	}
	bin, err := scuba.BuildScubad(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	workDir := t.TempDir()
	out, err := exec.Command(bin, "-id", "0", "-addr", "127.0.0.1:0", "-shm-dir", workDir,
		"-namespace", "itest-nodisk", "-disk-root", "", "-wal-dir", filepath.Join(workDir, "wal")).CombinedOutput()
	if err == nil {
		t.Fatalf("scubad started with -wal-dir and no -disk-root:\n%s", out)
	}
	if !strings.Contains(string(out), "WALDir needs DiskRoot") {
		t.Errorf("exit message does not name the config error:\n%s", out)
	}
}
