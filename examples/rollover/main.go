// Rollover: upgrade a whole mini-cluster 2%-at-a-time while queries keep
// running, rendering the Figure 8 dashboard. Runs the shared-memory path
// and the disk-recovery baseline back to back and prints the comparison,
// then extrapolates both to production scale with the calibrated simulator.
//
// Usage:
//
//	go run ./examples/rollover [-machines 4] [-leaves 8] [-rows 200000]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"scuba"
)

func main() {
	machines := flag.Int("machines", 4, "machines in the mini-cluster")
	leaves := flag.Int("leaves", 8, "leaf servers per machine")
	rows := flag.Int("rows", 200000, "rows to ingest before the rollover")
	batch := flag.Float64("batch", 0.125, "fraction of leaves restarted per batch")
	flag.Parse()

	workDir, err := os.MkdirTemp("", "scuba-rollover-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(workDir)

	c, err := scuba.NewCluster(scuba.ClusterConfig{
		Machines:            *machines,
		LeavesPerMachine:    *leaves,
		ShmDir:              workDir,
		DiskRoot:            workDir + "/disk",
		Namespace:           "rollover",
		MemoryBudgetPerLeaf: 1 << 30,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cluster: %d machines x %d leaves = %d leaf servers\n",
		*machines, *leaves, c.Size())

	// Load data through the tailer placement path.
	placer := scuba.NewPlacer(c.Targets(), 42)
	gen := scuba.ServiceLogs(42, time.Now().Unix()-7200)
	for placed := 0; placed < *rows; placed += 1000 {
		if _, err := placer.Place("service_logs", gen.NextBatch(1000)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("ingested %d rows across the cluster\n\n", *rows)

	agg := c.NewAggregator()
	countQ := &scuba.Query{Table: "service_logs", From: 0, To: 1 << 40,
		Aggregations: []scuba.Aggregation{{Op: scuba.AggCount}}}

	runOne := func(useShm bool, version int) *scuba.RolloverReport {
		name := "disk"
		if useShm {
			name = "shared memory"
		}
		fmt.Printf("=== rollover via %s ===\n", name)
		rep, err := c.Rollover(scuba.RolloverConfig{
			BatchFraction: *batch,
			UseShm:        useShm,
			TargetVersion: version,
			OnBatch: func(b int, _ []string, s scuba.ClusterSnapshot) {
				// The Figure 8 dashboard, one line per batch.
				total := s.OldVersion + s.RollingOver + s.NewVersion
				bar := func(n int, ch string) string {
					return strings.Repeat(ch, n*40/total)
				}
				fmt.Printf("batch %2d |%s%s%s| %s\n", b,
					bar(s.NewVersion, "#"), bar(s.RollingOver, "~"), bar(s.OldVersion, "."),
					s.String())
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := agg.Query(countQ)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("done: %s; rows visible: %.0f\n\n", rep, res.Rows(countQ)[0].Values[0])
		return rep
	}

	shmRep := runOne(true, 2)
	diskRep := runOne(false, 3)

	fmt.Printf("mini-cluster speedup (shm vs disk): %.1fx\n\n",
		diskRep.Duration.Seconds()/shmRep.Duration.Seconds())

	// Extrapolate to the paper's scale with the calibrated model.
	p := scuba.DefaultSimParams()
	simDisk := p.SimulateRollover(false)
	simShm := p.SimulateRollover(true)
	fmt.Println("=== production-scale extrapolation (100 machines x 8 leaves x 15 GB) ===")
	fmt.Printf("disk rollover:  %v   (paper: 10-12 hours)\n", simDisk.Total.Round(time.Minute))
	fmt.Printf("shm  rollover:  %v   (paper: under an hour)\n", simShm.Total.Round(time.Minute))
	fmt.Printf("weekly full availability: %.1f%% disk vs %.1f%% shm (paper: 93%% vs 99.5%%)\n",
		100*scuba.WeeklyFullAvailability(simDisk.Total),
		100*scuba.WeeklyFullAvailability(simShm.Total))
}
