// Command scuba-rollover drives a system-wide software upgrade (§4.5):
// against real scubad subprocesses with replica-backed shard routing
// (-mode real, the production procedure end to end with a live availability
// timeline), against an in-process mini-cluster (-mode live, measuring the
// restart path itself), or with the calibrated production-scale model
// (-mode sim, reproducing the paper's hour-scale numbers). All render the
// Figure 8 dashboard: old version / rolling over / new version.
//
// Usage:
//
//	scuba-rollover -mode real -machines 4 -leaves 4 -rows 100000 -replication 2
//	scuba-rollover -mode live -machines 4 -leaves 8 -rows 400000 -path shm
//	scuba-rollover -mode sim  -path both
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"reflect"
	"strings"
	"time"

	"scuba"
	"scuba/internal/sim"
)

func main() {
	var (
		mode        = flag.String("mode", "live", "real (scubad subprocesses), live (in-process mini-cluster), sim (paper-scale model), or canary")
		machines    = flag.Int("machines", 4, "machines (real/live modes)")
		leaves      = flag.Int("leaves", 8, "leaves per machine (real/live modes)")
		rows        = flag.Int("rows", 200000, "rows to preload (real/live modes)")
		path        = flag.String("path", "both", "shm, disk, or both (real mode uses shm unless -path disk)")
		batch       = flag.Float64("batch", 0.02, "fraction of leaves per batch")
		replication = flag.Int("replication", 2, "owners per shard (real mode)")
		numShards   = flag.Int("shards", 0, "shards per table (real mode; 0 = default)")
		bin         = flag.String("bin", "", "scubad binary (real mode; '' builds it)")
		killAfter   = flag.Duration("kill-timeout", 3*time.Minute, "per-leaf drain deadline before kill -9 (real mode)")
		maxDisk     = flag.Float64("max-disk-fallback", 0, "abort when this fraction of restarts disk-recover (real mode; 0 disables)")
		verbose     = flag.Bool("v", false, "forward subprocess logs to stderr (real mode)")
	)
	flag.Parse()

	switch *mode {
	case "real":
		runReal(realConfig{
			machines: *machines, leaves: *leaves, rows: *rows,
			batch: *batch, useShm: *path != "disk",
			replication: *replication, numShards: *numShards,
			bin: *bin, killTimeout: *killAfter, maxDiskFallback: *maxDisk,
			verbose: *verbose,
		})
	case "live":
		runLive(*machines, *leaves, *rows, *batch, *path)
	case "sim":
		runSim(*batch, *path)
	case "canary":
		runCanary(*machines, *leaves, *rows)
	default:
		log.Fatalf("unknown mode %q", *mode)
	}
}

type realConfig struct {
	machines, leaves, rows int
	batch                  float64
	useShm                 bool
	replication, numShards int
	bin                    string
	killTimeout            time.Duration
	maxDiskFallback        float64
	verbose                bool
}

// runReal is the production rollover procedure end to end: real scubad
// processes, dual-written shards, drain-to-shm RPCs, kill timeouts,
// /debug/recovery polling, and shard-map flips through the aggregator's
// admin RPCs — with a probe measuring live availability the whole way.
func runReal(cfg realConfig) {
	workDir, err := os.MkdirTemp("", "scuba-real-rollover-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(workDir)

	binPath := cfg.bin
	if binPath == "" {
		fmt.Println("building scubad...")
		binPath, err = scuba.BuildScubad(workDir)
		if err != nil {
			log.Fatal(err)
		}
	}
	var logs = os.Stderr
	if !cfg.verbose {
		logs = nil
	}
	start := time.Now()
	pc, err := scuba.StartProcCluster(scuba.ProcConfig{
		BinPath:          binPath,
		Machines:         cfg.machines,
		LeavesPerMachine: cfg.leaves,
		Replication:      cfg.replication,
		NumShards:        cfg.numShards,
		WorkDir:          workDir,
		Namespace:        "real-rollover",
		Logs:             logs,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer pc.Close()
	n := cfg.machines * cfg.leaves
	fmt.Printf("%d scubad processes up in %v (%d machines x %d leaves, R=%d), aggregator at %s\n",
		n, time.Since(start).Round(time.Millisecond), cfg.machines, cfg.leaves,
		cfg.replication, pc.AggAddr())

	placer := pc.NewShardedPlacer()
	gen := scuba.ServiceLogs(1, time.Now().Unix()-7200)
	for sent := 0; sent < cfg.rows; sent += 1000 {
		if _, err := placer.Place("service_logs", gen.NextBatch(1000)); err != nil {
			log.Fatal(err)
		}
	}
	st := placer.Stats()
	fmt.Printf("loaded %d rows as %d batches (%d replica copies, %d missed)\n",
		st.RowsPlaced, st.Batches, st.Copies, st.MissedCopies)

	q := &scuba.Query{Table: "service_logs", From: 0, To: 1 << 62,
		Aggregations: []scuba.Aggregation{{Op: scuba.AggCount}, {Op: scuba.AggSum, Column: "latency_ms"}},
		GroupBy:      []string{"service"}}
	aggCli := pc.AggClient()
	baseline, err := aggCli.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	baseRows := baseline.Rows(q)
	fmt.Printf("baseline: %d/%d shards, %d result groups\n\n",
		baseline.ShardsAnswered, baseline.ShardsTotal, len(baseRows))

	probe := scuba.StartAvailabilityProbe(aggCli, scuba.ProbeConfig{
		Query: q,
		Check: func(res *scuba.Result) error {
			if !reflect.DeepEqual(res.Rows(q), baseRows) {
				return errors.New("result drifted from baseline")
			}
			return nil
		},
	})

	which := "shm"
	if !cfg.useShm {
		which = "disk"
	}
	fmt.Printf("--- %s rollover, %d%% per batch ---\n", which, int(cfg.batch*100))
	rollStart := time.Now()
	rep, err := pc.Rollover(scuba.RolloverConfig{
		BatchFraction:   cfg.batch,
		UseShm:          cfg.useShm,
		KillTimeout:     cfg.killTimeout,
		MaxDiskFallback: cfg.maxDiskFallback,
		Tables:          []string{"service_logs"},
		OnBatch:         printBatch,
	})
	avail := probe.Stop()
	if err != nil {
		fmt.Printf("rollover stopped: %v\n", err)
	}
	fmt.Printf("%s rollover: %s\n", which, rep)
	// Both timelines become __system.rollover rows (DESIGN.md §12), which any
	// aggregator query reads back.
	for _, rows := range [][]scuba.Row{rep.Rows("scuba-rollover", rollStart), avail.Rows("scuba-rollover", rollStart)} {
		if err := pc.Persist(rows); err != nil {
			fmt.Printf("%d rows not persisted to %s: %v\n", len(rows), scuba.SystemRolloverTable, err)
		} else {
			fmt.Printf("persisted %d rows to %s\n", len(rows), scuba.SystemRolloverTable)
		}
	}

	fmt.Printf("\navailability during rollover (%d queries, %d errors, %d wrong):\n",
		avail.Queries, avail.Errors, avail.Wrong)
	fmt.Printf("  shard coverage: min %.1f%%   leaf coverage: min %.1f%%\n",
		100*avail.MinShardCoverage, 100*avail.MinLeafCoverage)
	fmt.Printf("  query latency: p50 %v  p99 %v\n",
		avail.P50.Round(time.Microsecond), avail.P99.Round(time.Microsecond))
	step := len(avail.Points) / 12
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(avail.Points); i += step {
		pt := avail.Points[i]
		w := 40
		bar := strings.Repeat("#", int(pt.ShardCoverage*float64(w)))
		bar += strings.Repeat(".", w-len(bar))
		fmt.Printf("  %8s |%s| shards %5.1f%%  leaves %5.1f%%  %v\n",
			pt.Elapsed.Round(time.Millisecond), bar,
			100*pt.ShardCoverage, 100*pt.LeafCoverage, pt.Latency.Round(time.Microsecond))
	}
}

// runCanary demonstrates §6's experimental-deployment workflow: put an
// experimental build on a handful of leaves, check the data is intact,
// revert, check again — all through shared memory, seconds per step.
func runCanary(machines, leaves, rows int) {
	workDir, err := os.MkdirTemp("", "scuba-canary-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(workDir)
	c, err := scuba.NewCluster(scuba.ClusterConfig{
		Machines: machines, LeavesPerMachine: leaves,
		ShmDir: workDir, DiskRoot: workDir + "/disk",
		Namespace: "canary", MemoryBudgetPerLeaf: 1 << 30,
	})
	if err != nil {
		log.Fatal(err)
	}
	placer := scuba.NewPlacer(c.Targets(), 1)
	gen := scuba.ServiceLogs(1, time.Now().Unix()-3600)
	for sent := 0; sent < rows; sent += 1000 {
		if _, err := placer.Place("service_logs", gen.NextBatch(1000)); err != nil {
			log.Fatal(err)
		}
	}
	agg := c.NewAggregator()
	count := func() float64 {
		q := &scuba.Query{Table: "service_logs", From: 0, To: 1 << 40,
			Aggregations: []scuba.Aggregation{{Op: scuba.AggCount}}}
		res, err := agg.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		return res.Rows(q)[0].Values[0]
	}
	fmt.Printf("cluster of %d leaves, %.0f rows; canarying leaves 0 and 1\n", c.Size(), count())

	can, err := c.StartCanary(scuba.CanaryConfig{Nodes: []int{0, 1}, Version: 99})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("experimental v99 on 2 leaves:\n%s  rows still %.0f\n", restartLines(can.Deploy), count())

	reverts, err := can.Revert()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reverted to v1:\n%s  rows still %.0f\n", restartLines(reverts), count())
	fmt.Println("(§6: \"we can add more logging, test bug fixes, and try new software designs — and then revert\")")
}

func wantPath(path, which string) bool { return path == which || path == "both" }

// printBatch is the Figure 8 dashboard, one line per batch; every mode that
// restarts real leaves prints through it.
func printBatch(b int, draining []string, s scuba.ClusterSnapshot) {
	fmt.Printf("  batch %3d  %s  draining %s\n", b, s, strings.Join(draining, " "))
}

// restartLines renders single-leaf restarts the way a report's are recorded.
func restartLines(restarts []scuba.Restart) string {
	var b strings.Builder
	for _, rs := range restarts {
		fmt.Fprintf(&b, "  %s: recovery %s, gap %v, total %v\n", rs.Name, rs.Recovery,
			rs.Gap.Round(time.Microsecond), rs.Duration.Round(time.Microsecond))
	}
	return b.String()
}

func runLive(machines, leaves, rows int, batch float64, path string) {
	workDir, err := os.MkdirTemp("", "scuba-rollover-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(workDir)

	c, err := scuba.NewCluster(scuba.ClusterConfig{
		Machines:            machines,
		LeavesPerMachine:    leaves,
		ShmDir:              workDir,
		DiskRoot:            workDir + "/disk",
		Namespace:           "rollover",
		MemoryBudgetPerLeaf: 1 << 30,
	})
	if err != nil {
		log.Fatal(err)
	}
	placer := scuba.NewPlacer(c.Targets(), 1)
	gen := scuba.ServiceLogs(1, time.Now().Unix()-7200)
	for sent := 0; sent < rows; sent += 1000 {
		if _, err := placer.Place("service_logs", gen.NextBatch(1000)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("live cluster: %d leaves, %d rows preloaded\n\n", c.Size(), rows)

	version := 2
	var durations = map[string]time.Duration{}
	for _, p := range []struct {
		name   string
		useShm bool
	}{{"shm", true}, {"disk", false}} {
		if !wantPath(path, p.name) {
			continue
		}
		fmt.Printf("--- %s rollover, %d%% per batch ---\n", p.name, int(batch*100))
		rep, err := c.Rollover(scuba.RolloverConfig{
			BatchFraction: batch,
			UseShm:        p.useShm,
			TargetVersion: version,
			OnBatch:       printBatch,
		})
		if err != nil {
			log.Fatal(err)
		}
		durations[p.name] = rep.Duration
		fmt.Printf("%s rollover: %s\n\n", p.name, rep)
		version++
	}
	if d1, ok1 := durations["shm"]; ok1 {
		if d2, ok2 := durations["disk"]; ok2 {
			fmt.Printf("shm speedup over disk: %.1fx\n", d2.Seconds()/d1.Seconds())
		}
	}
}

func runSim(batch float64, path string) {
	p := scuba.DefaultSimParams()
	p.BatchFraction = batch
	fmt.Printf("simulated cluster: %d machines x %d leaves x %.0f GB (paper scale)\n\n",
		p.Machines, p.LeavesPerMachine, p.DataPerLeafGB)

	for _, which := range []struct {
		name   string
		useShm bool
		paper  string
	}{
		{"shm", true, "paper: 2-3 min/server, <1 h rollover"},
		{"disk", false, "paper: 2.5-3 h/server, 10-12 h rollover"},
	} {
		if !wantPath(path, which.name) {
			continue
		}
		rep := p.SimulateRollover(which.useShm)
		fmt.Printf("--- %s (%s) ---\n", which.name, which.paper)
		fmt.Printf("per-machine restart: %s   rollover: %s in %d batches   "+
			"min availability: %.1f%%   weekly full availability: %.1f%%\n",
			sim.FormatDuration(p.MachineRestartTime(which.useShm)),
			sim.FormatDuration(rep.Total), rep.Batches,
			100*rep.MinAvailability, 100*scuba.WeeklyFullAvailability(rep.Total))
		// A compact Figure 8: ten evenly spaced dashboard lines.
		step := len(rep.Timeline) / 10
		if step < 1 {
			step = 1
		}
		for i := 0; i < len(rep.Timeline); i += step {
			pt := rep.Timeline[i]
			total := pt.OldVersion + pt.RollingOver + pt.NewVersion
			w := 50
			bar := strings.Repeat("#", pt.NewVersion*w/total) +
				strings.Repeat("~", pt.RollingOver*w/total)
			bar += strings.Repeat(".", w-len(bar))
			fmt.Printf("  %8s |%s| old=%d rolling=%d new=%d\n",
				sim.FormatDuration(pt.Elapsed), bar, pt.OldVersion, pt.RollingOver, pt.NewVersion)
		}
		fmt.Println()
	}
}
