package scuba_test

// End-to-end observability: run scubad as a real OS process with -http,
// scrape /metrics and /debug/recovery over HTTP, restart it through shared
// memory, and check the restart-phase breakdown and the flight-recorder
// story survive the process boundary.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"scuba"
)

func httpGetBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", url, resp.Status, b)
	}
	return string(b)
}

func TestDaemonObservabilityEndpoints(t *testing.T) {
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
	addr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	httpAddr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	startDaemon := func() *exec.Cmd {
		cmd := exec.Command(bin,
			"-id", "0",
			"-addr", addr,
			"-http", httpAddr,
			"-shm-dir", workDir,
			"-namespace", "otest",
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

	// ---- first process: load, query, scrape /metrics ----
	proc := startDaemon()
	client := scuba.DialLeaf(addr)
	defer client.Close()
	waitReady(client)

	gen := scuba.ServiceLogs(7, 1700000000)
	if err := client.AddRows("service_logs", gen.NextBatch(5000)); err != nil {
		t.Fatal(err)
	}
	q := &scuba.Query{Table: "service_logs", From: 0, To: 1 << 40,
		Aggregations: []scuba.Aggregation{{Op: scuba.AggCount}}}
	for i := 0; i < 3; i++ {
		if _, err := client.Query(q); err != nil {
			t.Fatal(err)
		}
	}

	body := httpGetBody(t, "http://"+httpAddr+"/metrics")
	for _, want := range []string{
		"counter rpc_query 3",
		"timer query_latency count=3",
		"histogram query_latency_hist count=3",
		"p50=", "p95=", "p99=",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	var dump scuba.RecoveryDump
	if err := json.Unmarshal([]byte(httpGetBody(t, "http://"+httpAddr+"/debug/recovery")), &dump); err != nil {
		t.Fatalf("bad /debug/recovery JSON: %v", err)
	}
	if dump.CurrentRun == nil || len(dump.CurrentEvents) == 0 {
		t.Fatalf("first run recorded no events: %+v", dump)
	}

	// ---- restart through shared memory ----
	if _, err := client.Shutdown(true); err != nil {
		t.Fatalf("shutdown RPC: %v", err)
	}
	if err := waitExit(proc, 10*time.Second); err != nil {
		t.Fatalf("daemon did not exit: %v", err)
	}

	proc2 := startDaemon()
	defer func() {
		proc2.Process.Signal(os.Interrupt) //nolint:errcheck
		waitExit(proc2, 10*time.Second)    //nolint:errcheck
	}()
	client2 := scuba.DialLeaf(addr)
	defer client2.Close()
	waitReady(client2)

	// /metrics of the restarted process: the Figure 7 phase timers.
	body = httpGetBody(t, "http://"+httpAddr+"/metrics")
	for _, want := range []string{
		"timer restart_map count=1",
		"timer restart_copy_in count=1",
		"timer restart_table_copy_in count=1",
		"timer restart_alive count=1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("post-restart /metrics missing %q:\n%s", want, body)
		}
	}

	// /debug/recovery: the memory path taken, and the previous run's story
	// (its Figure 6 copy-out + commit) read back from the flight recorder.
	dump = scuba.RecoveryDump{}
	if err := json.Unmarshal([]byte(httpGetBody(t, "http://"+httpAddr+"/debug/recovery")), &dump); err != nil {
		t.Fatalf("bad /debug/recovery JSON: %v", err)
	}
	rec, ok := dump.Recovery.(map[string]any)
	if !ok || rec["Path"] != "memory" {
		t.Errorf("recovery = %+v, want memory path", dump.Recovery)
	}
	if dump.PreviousRun == nil {
		t.Fatal("no previous-run summary after restart")
	}
	if dump.PreviousRun.Failed {
		t.Errorf("clean previous run marked failed: %+v", dump.PreviousRun)
	}
	var sawCopyOut, sawCommit bool
	for _, ev := range dump.PreviousEvents {
		if ev.KindName == "end" && ev.Phase == "restart.copy_out" {
			sawCopyOut = true
		}
		if ev.KindName == "end" && ev.Phase == "restart.commit" {
			sawCommit = true
		}
	}
	if !sawCopyOut || !sawCommit {
		t.Errorf("previous events missing copy-out/commit spans: %+v", dump.PreviousEvents)
	}
	// And the restart as one trace: the old process's shutdown half, carried
	// over in the flight-recorder ring, and this process's start half.
	halves := map[string]uint64{}
	for _, sp := range dump.Restart {
		if id, seen := halves[sp.Half]; seen && id != sp.TraceID {
			t.Errorf("%s half spans carry trace IDs %d and %d", sp.Half, id, sp.TraceID)
		}
		halves[sp.Half] = sp.TraceID
	}
	if len(halves) != 2 || halves["shutdown"] != halves["start"] || halves["start"] == 0 {
		t.Errorf("restart ledger halves → trace IDs = %v, want both halves under one ID: %+v", halves, dump.Restart)
	}
	var sawLogs bool
	for _, st := range dump.Restart.Half("start").Tables() {
		sawLogs = sawLogs || (st.Table == "service_logs" && st.Blocks > 0)
	}
	if !sawLogs {
		t.Errorf("restart ledger's start half does not carry service_logs: %+v", dump.Restart)
	}
	// Data really is back (the restart the metrics describe happened).
	res, err := client2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if rows := res.Rows(q); len(rows) == 0 || rows[0].Values[0] != 5000 {
		t.Fatalf("post-restart query = %+v", res.Rows(q))
	}
}
