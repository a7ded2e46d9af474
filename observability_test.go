package scuba_test

// End-to-end observability: run scubad as a real OS process with -http and
// -telemetry-interval, scrape /metrics and /debug/recovery over HTTP, restart
// it through shared memory, and read the restart back where a query is read:
// the previous run's flight-recorder events from __system.recorder, both
// halves of the restart trace from __system.traces.

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
			"-telemetry-interval", "200ms",
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
		"\nscuba_rpc_query 3\n",
		"\nscuba_query_latency_seconds_count 3\n",
		"\nscuba_query_latency_hist_seconds_count 3\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
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
		"\nscuba_restart_map_seconds_count 1\n",
		"\nscuba_restart_copy_in_seconds_count 1\n",
		"\nscuba_restart_table_copy_in_seconds_count ",
		"\nscuba_restart_alive_seconds_count 1\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("post-restart /metrics missing %q:\n%s", want, body)
		}
	}

	// /debug/recovery: the live recovery state, the memory path taken, and
	// nothing else.
	var dump map[string]json.RawMessage
	if err := json.Unmarshal([]byte(httpGetBody(t, "http://"+httpAddr+"/debug/recovery")), &dump); err != nil {
		t.Fatalf("bad /debug/recovery JSON: %v", err)
	}
	var rec scuba.RecoveryInfo
	if err := json.Unmarshal(dump["recovery"], &rec); err != nil || len(dump) != 1 || rec.Path != scuba.RecoveryMemory {
		t.Errorf("/debug/recovery = %s, want only the recovery member, on the memory path", dump)
	}

	// The previous run's story — its Figure 6 copy-out and commit — read back
	// from the flight recorder into __system.recorder, and the restart as one
	// trace in __system.traces: the old process's shutdown half, carried over
	// in the ring, and this process's start half. The sink delivers both
	// behind ALIVE.
	events := &scuba.Query{Table: scuba.SystemRecorderTable, From: 0, To: 1 << 40,
		Filters: []scuba.Filter{{Column: "run", Str: "previous"}, {Column: "kind", Str: "end"}},
		GroupBy: []string{"phase"}, Aggregations: []scuba.Aggregation{{Op: scuba.AggCount}}}
	deadline := time.Now().Add(10 * time.Second)
	var ended map[string]bool
	var restart scuba.Trace
	for {
		res, err := client2.Query(events)
		if err != nil {
			t.Fatal(err)
		}
		ended = map[string]bool{}
		for _, row := range res.Rows(events) {
			ended[row.Key[0]] = true
		}
		if traces := systemTraces(t, client2, scuba.Filter{Column: "kind", Str: "restart"}); len(traces) > 0 {
			restart = traces[0]
		}
		done := ended["restart.copy_out"] && ended["restart.commit"] &&
			len(restart.Half("shutdown")) > 0 && len(restart.Half("start")) > 0
		if done || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !ended["restart.copy_out"] || !ended["restart.commit"] {
		t.Errorf("previous run's ended phases in %s = %v, want copy-out and commit", scuba.SystemRecorderTable, ended)
	}
	if len(restart.Half("shutdown")) == 0 || len(restart.Half("start")) == 0 {
		t.Errorf("newest restart trace in %s = %+v, want both halves under one ID", scuba.SystemTracesTable, restart)
	}
	var sawLogs bool
	for _, st := range restart.Half("start").Tables() {
		sawLogs = sawLogs || (st.Table == "service_logs" && st.Blocks > 0)
	}
	if !sawLogs {
		t.Errorf("restart trace's start half does not carry service_logs: %+v", restart)
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
