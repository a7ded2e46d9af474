package scuba_test

// Crash drills against the real daemon: ActCrash faults kill the process
// with os.Exit mid-restart-path, which no in-process test can exercise. The
// contract under test is the paper's §4.3 invariant — a crash at ANY point
// before the valid bit commits leaves the shm backup unusable, and the next
// process must come up from the disk backup with the full dataset.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"scuba"
)

func TestDaemonCrashDuringShutdownRecoversFromDisk(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping subprocess crash drill")
	}
	bin := filepath.Join(t.TempDir(), "scubad")
	build := exec.Command("go", "build", "-o", bin, "./cmd/scubad")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building scubad: %v\n%s", err, out)
	}

	// Crash at the first copy-out block write, and crash at the valid-bit
	// commit after all data copied: both must leave the valid bit unset.
	// With one table, Shutdown's metadata writes are initial(1) +
	// registration(2, after the table synced to disk and copied) +
	// commit(3), so after=2 lands the crash exactly on the commit — the
	// worst case, where the shm backup is complete but uncommitted.
	for _, site := range []string{"shm.copy_out=crash", "shm.commit=crash;after=2"} {
		t.Run(site, func(t *testing.T) {
			workDir := t.TempDir()
			addr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
			startDaemon := func(faultSpec string) *exec.Cmd {
				args := []string{
					"-id", "0",
					"-addr", addr,
					"-shm-dir", workDir,
					"-namespace", "chaos",
					"-disk-root", filepath.Join(workDir, "disk"),
				}
				if faultSpec != "" {
					args = append(args, "-fault", faultSpec)
				}
				cmd := exec.Command(bin, args...)
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

			// The doomed process: the armed site only fires on the restart
			// path, so it serves normally until the shutdown RPC.
			doomed := startDaemon(site)
			client := scuba.DialLeaf(addr)
			defer client.Close()
			waitReady(client)

			gen := scuba.ServiceLogs(23, 1700000000)
			const rows = 20000
			for sent := 0; sent < rows; sent += 5000 {
				if err := client.AddRows("service_logs", gen.NextBatch(5000)); err != nil {
					t.Fatalf("load: %v", err)
				}
			}
			// No block has sealed: the shutdown's own persist, ahead of the
			// copy-out the fault crashes, is what puts the rows on disk.

			// The shutdown RPC crashes the process mid-drain; the client sees
			// a transport error, never a clean response.
			if _, err := client.Shutdown(true); err == nil {
				t.Fatal("shutdown RPC succeeded despite injected crash")
			}
			if err := waitExit(doomed, 10*time.Second); err != nil {
				t.Fatalf("crashed daemon did not exit: %v", err)
			}

			// The replacement, no faults: the valid bit never committed, so
			// it must take the disk path and still serve the full dataset.
			next := startDaemon("")
			defer func() {
				next.Process.Signal(os.Interrupt) //nolint:errcheck
				waitExit(next, 10*time.Second)    //nolint:errcheck
			}()
			client2 := scuba.DialLeaf(addr)
			defer client2.Close()
			waitReady(client2)

			q := &scuba.Query{Table: "service_logs", From: 0, To: 1 << 40,
				Aggregations: []scuba.Aggregation{{Op: scuba.AggCount}}}
			res, err := client2.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			got := res.Rows(q)
			if len(got) == 0 || got[0].Values[0] != rows {
				t.Fatalf("rows after crash recovery = %v, want %d", got, rows)
			}
		})
	}
}

// TestDaemonCrashDuringIngestWAL is the tentpole's durability drill: a
// WAL-enabled daemon is killed at every stage of the write-ahead path —
// kill -9 mid-AddRows burst, injected crashes inside WAL append, WAL fsync,
// the store's image write, WAL truncation, and WAL replay itself — and in
// every case the replacement must serve every acked row with no half-applied
// batch.
// The per-batch latency sums pin content, not just counts: the recovered
// prefix must be byte-for-byte the batches the client sent.
func TestDaemonCrashDuringIngestWAL(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping subprocess crash drills")
	}
	bin, err := scuba.BuildScubad(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const batchSize = 500

	scenarios := []struct {
		name string
		// fault arms the doomed (first) process; "" means the test kills it
		// raw, SIGKILL mid-burst.
		fault string
		// replayFault arms the SECOND process, crashing it mid-recovery; a
		// third, clean process must then recover everything.
		replayFault string
	}{
		{name: "kill9-mid-burst"},
		{name: "wal-append", fault: "wal.append=crash;after=8"},
		{name: "wal-sync", fault: "wal.sync=crash;after=8"},
		{name: "snap-write", fault: "snap.write=crash"},
		{name: "wal-truncate", fault: "wal.truncate=crash"},
		{name: "wal-replay", replayFault: "wal.replay=crash"},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			workDir := t.TempDir()
			addr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
			httpAddr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
			startDaemon := func(faultSpec string) *exec.Cmd {
				args := []string{
					"-id", "0",
					"-addr", addr,
					"-http", httpAddr,
					"-shm-dir", workDir,
					"-namespace", "chaos-wal-" + sc.name,
					"-disk-root", filepath.Join(workDir, "disk"),
					"-wal-dir", filepath.Join(workDir, "wal"),
				}
				if faultSpec != "" {
					args = append(args, "-fault", faultSpec)
				}
				cmd := exec.Command(bin, args...)
				cmd.Stdout = os.Stderr
				cmd.Stderr = os.Stderr
				if err := cmd.Start(); err != nil {
					t.Fatalf("starting scubad: %v", err)
				}
				return cmd
			}
			waitReady := func(c *scuba.Client) {
				deadline := time.Now().Add(15 * time.Second)
				for time.Now().Before(deadline) {
					if err := c.Ping(); err == nil {
						return
					}
					time.Sleep(20 * time.Millisecond)
				}
				t.Fatal("daemon did not become ready")
			}

			doomed := startDaemon(sc.fault)
			client := scuba.DialLeaf(addr)
			defer client.Close()
			waitReady(client)

			// Send batches one at a time (so WAL order == send order) and
			// track each batch's latency_ms sum. batchSums[i] is only
			// meaningful for batches that were sent, acked or not.
			gen := scuba.ServiceLogs(47, 1700000000)
			var batchSums []int64
			acked := 0
			sendOne := func() error {
				batch := gen.NextBatch(batchSize)
				var sum int64
				for _, r := range batch {
					sum += r.Cols["latency_ms"].Int
				}
				batchSums = append(batchSums, sum)
				if err := client.AddRows("service_logs", batch); err != nil {
					return err
				}
				acked++
				return nil
			}

			switch {
			case sc.fault != "":
				// Ingest until the armed fault kills the process mid-call
				// (append/sync sites), or until the persist behind the first
				// seal (132 batches in) kills it (snap/truncate sites) and
				// sends start failing.
				deadline := time.Now().Add(15 * time.Second)
				for time.Now().Before(deadline) {
					if err := sendOne(); err != nil {
						break
					}
					time.Sleep(30 * time.Millisecond)
				}
				if acked == len(batchSums) {
					t.Fatal("armed fault never fired: every batch acked")
				}
			default:
				// Clean burst first, then — for the raw-kill drill — SIGKILL
				// arrives mid-burst from outside; for the replay drill the
				// process dies before recovery instead.
				for i := 0; i < 10; i++ {
					if err := sendOne(); err != nil {
						t.Fatalf("load: %v", err)
					}
				}
				if sc.replayFault == "" {
					killed := make(chan struct{})
					go func() {
						defer close(killed)
						time.Sleep(50 * time.Millisecond)
						doomed.Process.Kill() //nolint:errcheck
					}()
					for {
						if err := sendOne(); err != nil {
							break
						}
					}
					<-killed
				} else {
					doomed.Process.Kill() //nolint:errcheck
				}
			}
			if err := waitExit(doomed, 20*time.Second); err != nil {
				t.Fatalf("doomed daemon did not exit: %v", err)
			}

			if sc.replayFault != "" {
				// The replacement crashes mid-replay; recovery must be
				// restartable from scratch.
				mid := startDaemon(sc.replayFault)
				if err := waitExit(mid, 20*time.Second); err != nil {
					t.Fatalf("mid-recovery crash daemon did not exit: %v", err)
				}
			}

			next := startDaemon("")
			defer func() {
				next.Process.Signal(os.Interrupt) //nolint:errcheck
				waitExit(next, 10*time.Second)    //nolint:errcheck
			}()
			client2 := scuba.DialLeaf(addr)
			defer client2.Close()
			waitReady(client2)

			q := &scuba.Query{Table: "service_logs", From: 0, To: 1 << 62,
				Aggregations: []scuba.Aggregation{
					{Op: scuba.AggCount}, {Op: scuba.AggSum, Column: "latency_ms"}}}
			res, err := client2.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			rows := res.Rows(q)
			if len(rows) == 0 {
				t.Fatal("no rows after crash recovery")
			}
			count := int(rows[0].Values[0])
			// Zero acked-row loss, and no half-applied batch: the survivors
			// are an exact prefix of the batches sent (a final batch that was
			// durable but never acked may legally appear).
			if count%batchSize != 0 {
				t.Fatalf("recovered %d rows: not a whole number of %d-row batches", count, batchSize)
			}
			n := count / batchSize
			if n < acked {
				t.Fatalf("recovered %d batches, %d were acked: acked rows lost", n, acked)
			}
			if n > len(batchSums) {
				t.Fatalf("recovered %d batches, only %d were ever sent", n, len(batchSums))
			}
			var wantSum int64
			for _, s := range batchSums[:n] {
				wantSum += s
			}
			if got := int64(rows[0].Values[1]); got != wantSum {
				t.Fatalf("sum(latency_ms) = %d, want %d: recovered rows are not the sent prefix", got, wantSum)
			}
			if path := debugRecoveryPath(t, httpAddr); path != "wal" {
				t.Errorf("recovery path = %q, want wal", path)
			}
		})
	}
}

// debugRecoveryPath reads the replacement's /debug/recovery, as the rollover
// orchestrator does.
func debugRecoveryPath(t *testing.T, httpAddr string) string {
	t.Helper()
	resp, err := http.Get("http://" + httpAddr + "/debug/recovery")
	if err != nil {
		t.Fatalf("GET /debug/recovery: %v", err)
	}
	defer resp.Body.Close()
	var dump struct {
		Recovery struct {
			Path string
		} `json:"recovery"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatalf("decoding /debug/recovery: %v", err)
	}
	return dump.Recovery.Path
}

// TestRolloverKillNineMidBatch is the sharded-rollover chaos drill: a leaf
// is kill -9'd after its batch was flipped to DRAINING but before its
// shutdown RPC lands. The orchestrator must not hang — the crashed leaf's
// shm backup is invalid, so its replacement takes the disk path while
// replicas keep its shards serving — and the rollover either completes
// (MaxDiskFallback disabled) or aborts at the canary guard.
func TestRolloverKillNineMidBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping subprocess chaos drill")
	}
	bin, err := scuba.BuildScubad(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	start := func(t *testing.T, disableWAL bool) (*scuba.ProcCluster, *scuba.Query, []scuba.ResultRow) {
		t.Helper()
		pc, err := scuba.StartProcCluster(scuba.ProcConfig{
			BinPath:          bin,
			Machines:         2,
			LeavesPerMachine: 2,
			Replication:      2,
			WorkDir:          t.TempDir(),
			Namespace:        "chaos-roll",
			DisableWAL:       disableWAL,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(pc.Close)
		placer := pc.NewShardedPlacer()
		gen := scuba.ServiceLogs(31, 1700000000)
		for sent := 0; sent < 5000; sent += 1000 {
			if _, err := placer.Place("service_logs", gen.NextBatch(1000)); err != nil {
				t.Fatal(err)
			}
		}
		// A kill -9 victim recovers only what disk holds: raise the
		// durability barrier (seal + sync every leaf) before any violence,
		// like a production orchestrator does before maintenance.
		if err := pc.FlushAll(); err != nil {
			t.Fatal(err)
		}
		q := &scuba.Query{Table: "service_logs", From: 0, To: 1 << 62,
			Aggregations: []scuba.Aggregation{{Op: scuba.AggCount}, {Op: scuba.AggSum, Column: "latency_ms"}},
			GroupBy:      []string{"service"}}
		baseline, err := pc.AggClient().Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if baseline.ShardCoverage() != 1 {
			t.Fatalf("baseline coverage %d/%d", baseline.ShardsAnswered, baseline.ShardsTotal)
		}
		return pc, q, baseline.Rows(q)
	}
	leafAt := func(t *testing.T, pc *scuba.ProcCluster, addr string) *scuba.ProcLeaf {
		t.Helper()
		for _, l := range pc.Leaves() {
			if l.Addr == addr {
				return l
			}
		}
		t.Fatalf("no leaf at %s", addr)
		return nil
	}
	killDraining := func(t *testing.T, pc *scuba.ProcCluster, addr string) {
		t.Helper()
		if err := leafAt(t, pc, addr).Kill(); err != nil {
			t.Errorf("kill -9 %s: %v", addr, err)
		}
	}
	holdsRows := func(t *testing.T, pc *scuba.ProcCluster, addr string) bool {
		t.Helper()
		st, err := leafAt(t, pc, addr).Client().Stats()
		if err != nil {
			t.Errorf("stats of %s: %v", addr, err)
			return false
		}
		return st.Rows > 0
	}

	t.Run("completes", func(t *testing.T) {
		pc, q, baseRows := start(t, false)
		var victim string
		probe := scuba.StartAvailabilityProbe(pc.AggClient(), scuba.ProbeConfig{
			Query: q,
			Check: func(res *scuba.Result) error {
				if !reflect.DeepEqual(res.Rows(q), baseRows) {
					return errors.New("result drifted from baseline")
				}
				return nil
			},
		})
		rep, err := pc.Rollover(scuba.RolloverConfig{
			BatchFraction: 0.25,
			UseShm:        true,
			KillTimeout:   time.Minute,
			Tables:        []string{"service_logs"},
			OnBatch: func(b int, draining []string, _ scuba.ClusterSnapshot) {
				// kill -9 a leaf of a later batch right after its DRAINING
				// flip: the shutdown RPC finds a corpse. The victim must hold
				// rows — a leaf that owns no non-empty shard has no log to
				// come back through and would recover by "none", not "wal" —
				// and with R=2 at least two leaves do, so one of them drains
				// after the first batch.
				if b >= 1 && victim == "" && holdsRows(t, pc, draining[0]) {
					victim = draining[0]
					killDraining(t, pc, victim)
				}
			},
		})
		avail := probe.Stop()
		if err != nil {
			t.Fatalf("rollover did not complete: %v", err)
		}
		if len(rep.Quarantined) != 0 {
			t.Errorf("quarantined leaves: %v", rep.Quarantined)
		}
		// Crash-path parity: the kill -9 victim's replacement comes back via
		// block images + WAL replay, every acked row served.
		if rep.Recoveries[scuba.RecoveryWAL] != 1 || rep.Recoveries[scuba.RecoveryMemory] != len(pc.Leaves())-1 {
			t.Errorf("recoveries = %v, want %d memory / 1 wal / 0 disk", rep.Recoveries, len(pc.Leaves())-1)
		}
		foundVictim := false
		for _, r := range rep.Restarts {
			if r.Name == victim {
				foundVictim = true
				if !r.Crashed || r.Recovery != scuba.RecoveryWAL {
					t.Errorf("victim restart = %+v, want Crashed via wal", r)
				}
			} else if r.Crashed || r.Recovery != scuba.RecoveryMemory {
				t.Errorf("bystander restart = %+v, want clean shm recovery", r)
			}
		}
		if !foundVictim {
			t.Error("victim's restart missing from the report")
		}
		// Replicas kept the victim's shards serving the §5 invariant.
		if avail.Wrong != 0 {
			t.Errorf("%d queries returned non-baseline results", avail.Wrong)
		}
		if avail.MinShardCoverage < 0.75 {
			t.Errorf("min shard coverage %.3f below the 1-BatchFraction floor", avail.MinShardCoverage)
		}
		after, err := pc.AggClient().Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if after.ShardCoverage() != 1 || !reflect.DeepEqual(after.Rows(q), baseRows) {
			t.Errorf("post-chaos coverage %d/%d or drifted result",
				after.ShardsAnswered, after.ShardsTotal)
		}
	})

	t.Run("aborts at MaxDiskFallback", func(t *testing.T) {
		// WAL off: the canary guard exists for the pre-WAL world where a
		// crashed leaf's only road back is the disk translate.
		pc, q, baseRows := start(t, true)
		killedIn := -1
		rep, err := pc.Rollover(scuba.RolloverConfig{
			BatchFraction: 0.25,
			UseShm:        true,
			KillTimeout:   time.Minute,
			// A single disk fallback among a batch's restarts trips the
			// canary guard immediately.
			MaxDiskFallback: 0.1,
			Tables:          []string{"service_logs"},
			OnBatch: func(b int, draining []string, _ scuba.ClusterSnapshot) {
				// The victim must hold rows, as above: a leaf that owns no
				// non-empty shard has no image to come back through and
				// recovers by "none", which is no disk fallback (1 full run in
				// 20 drained such a leaf first and went on to complete).
				if killedIn < 0 && holdsRows(t, pc, draining[0]) {
					killedIn = b
					killDraining(t, pc, draining[0])
				}
			},
		})
		if !errors.Is(err, scuba.ErrRolloverAborted) {
			t.Fatalf("err = %v, want ErrRolloverAborted", err)
		}
		if !rep.Aborted || rep.Batches != killedIn+1 || rep.Recoveries[scuba.RecoveryDisk] != 1 {
			t.Errorf("report = %+v, want aborted after batch %d with 1 disk recovery", rep, killedIn)
		}
		// The aborted rollover is still a healthy cluster: the victim came
		// back from disk, the batches before it restarted cleanly and the
		// ones after it never did.
		after, err := pc.AggClient().Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if after.ShardCoverage() != 1 || !reflect.DeepEqual(after.Rows(q), baseRows) {
			t.Errorf("post-abort coverage %d/%d or drifted result",
				after.ShardsAnswered, after.ShardsTotal)
		}
	})
}
