// Upgrade: a real cross-process software upgrade through shared memory —
// the paper's core scenario. The "old" process ingests data and exits
// cleanly through shared memory; a genuinely separate "new" process (this
// same binary re-executed, standing in for the upgraded build) maps the
// segments and recovers at memory speed. Crash the old process instead
// (-crash) and the new process falls back to the disk backup.
//
// Usage:
//
//	go run ./examples/upgrade                 # old + new process, shm path
//	go run ./examples/upgrade -crash          # old process crashes; disk path
//	go run ./examples/upgrade -rows 500000    # more data
//
// Internally the parent runs itself twice with -phase old / -phase new.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"time"

	"scuba"
)

var (
	phase = flag.String("phase", "", "internal: old | new")
	dir   = flag.String("dir", "", "shared working directory")
	rows  = flag.Int("rows", 200000, "rows to ingest")
	crash = flag.Bool("crash", false, "crash the old process instead of a clean shutdown")
)

func config(workDir string) scuba.LeafConfig {
	return scuba.LeafConfig{
		ID:           0,
		Shm:          scuba.ShmOptions{Dir: workDir, Namespace: "upgrade"},
		DiskRoot:     workDir + "/disk",
		MemoryBudget: 4 << 30,
	}
}

func main() {
	flag.Parse()
	switch *phase {
	case "old":
		runOld()
	case "new":
		runNew()
	default:
		orchestrate()
	}
}

// orchestrate runs the two phases as real separate OS processes.
func orchestrate() {
	workDir, err := os.MkdirTemp("", "scuba-upgrade-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(workDir)

	self, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	run := func(phase string) {
		cmd := exec.Command(self,
			"-phase", phase,
			"-dir", workDir,
			fmt.Sprintf("-rows=%d", *rows),
			fmt.Sprintf("-crash=%v", *crash),
		)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			// The crash variant exits non-zero on purpose.
			if phase == "old" && *crash {
				fmt.Printf("[orchestrator] old process died as requested: %v\n", err)
				return
			}
			log.Fatalf("phase %s: %v", phase, err)
		}
	}
	fmt.Println("[orchestrator] starting OLD process (version 1)")
	run("old")
	fmt.Println("[orchestrator] starting NEW process (version 2)")
	run("new")
}

func runOld() {
	l, err := scuba.NewLeaf(config(*dir))
	if err != nil {
		log.Fatal(err)
	}
	if err := l.Start(); err != nil {
		log.Fatal(err)
	}
	gen := scuba.ServiceLogs(7, time.Now().Unix()-3600)
	if err := l.AddRows("service_logs", gen.NextBatch(*rows)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("[old pid %d] ingested %d rows\n", os.Getpid(), *rows)

	// Keep a disk backup either way (normal async write-behind).
	if err := l.SealAll(); err != nil {
		log.Fatal(err)
	}
	if _, err := l.SyncToDisk(); err != nil {
		log.Fatal(err)
	}

	if *crash {
		fmt.Printf("[old pid %d] simulating a crash: exiting without shutdown\n", os.Getpid())
		os.Exit(3) // no valid bit was ever set; shm is unusable
	}
	info, err := l.Shutdown()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("[old pid %d] clean shutdown: %.1f MB to shared memory in %v with %d pool workers\n",
		os.Getpid(), float64(info.BytesCopied)/(1<<20), info.Duration.Round(time.Millisecond),
		info.Workers)
	printPerTable(os.Getpid(), "copied out", info.PerTable)
}

func runNew() {
	start := time.Now()
	l, err := scuba.NewLeaf(config(*dir))
	if err != nil {
		log.Fatal(err)
	}
	if err := l.Start(); err != nil {
		log.Fatal(err)
	}
	rec := l.Recovery()
	fmt.Printf("[new pid %d] recovered via %s: %d blocks, %.1f MB in %v with %d pool workers\n",
		os.Getpid(), rec.Path, rec.Blocks, float64(rec.BytesRestored)/(1<<20),
		rec.Duration.Round(time.Millisecond), rec.Workers)
	printPerTable(os.Getpid(), "copied in", rec.PerTable)

	q := &scuba.Query{
		Table: "service_logs", From: 0, To: 1 << 40,
		Aggregations: []scuba.Aggregation{{Op: scuba.AggCount}},
	}
	res, err := l.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	rowsOut := res.Rows(q)
	count := 0.0
	if len(rowsOut) > 0 {
		count = rowsOut[0].Values[0]
	}
	fmt.Printf("[new pid %d] query sees %.0f rows; total restart wall time %v\n",
		os.Getpid(), count, time.Since(start).Round(time.Millisecond))
}

// printPerTable shows which worker carried each table through the copy.
func printPerTable(pid int, verb string, stats []scuba.TableCopyStat) {
	for _, st := range stats {
		fmt.Printf("[pid %d]   %s %q: worker %d, %d blocks, %.1f MB in %v\n",
			pid, verb, st.Table, st.Worker, st.Blocks, float64(st.Bytes)/(1<<20),
			st.Duration.Round(time.Millisecond))
	}
}
