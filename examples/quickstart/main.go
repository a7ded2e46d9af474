// Quickstart: run a single Scuba leaf server in-process, ingest a synthetic
// service-log workload, query it, then perform the paper's fast restart —
// shut the "old process" down through shared memory and bring a "new
// process" up from it — and show that the data and query results survived.
//
// Usage:
//
//	go run ./examples/quickstart [-rows 100000] [-dir /tmp/scuba-quickstart]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"scuba"
)

func main() {
	rows := flag.Int("rows", 100000, "rows to ingest")
	dir := flag.String("dir", "", "working directory (default: a temp dir)")
	flag.Parse()

	workDir := *dir
	if workDir == "" {
		var err error
		workDir, err = os.MkdirTemp("", "scuba-quickstart-")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(workDir)
	}
	cfg := scuba.LeafConfig{
		ID:           0,
		Shm:          scuba.ShmOptions{Dir: workDir, Namespace: "quickstart"},
		DiskRoot:     filepath.Join(workDir, "disk"),
		MemoryBudget: 4 << 30,
	}

	// ---- "Old process": ingest and query ----
	l, err := scuba.NewLeaf(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := l.Start(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("leaf started (recovery path: %s)\n", l.Recovery().Path)

	gen := scuba.ServiceLogs(42, time.Now().Unix()-3600)
	start := time.Now()
	if err := l.AddRows("service_logs", gen.NextBatch(*rows)); err != nil {
		log.Fatal(err)
	}
	st := l.Stats()
	fmt.Printf("ingested %d rows in %v (%d blocks, %d compressed bytes)\n",
		*rows, time.Since(start).Round(time.Millisecond), st.Blocks, st.Bytes)

	q := &scuba.Query{
		Table: "service_logs", From: 0, To: 1 << 40,
		Aggregations: []scuba.Aggregation{
			{Op: scuba.AggCount},
			{Op: scuba.AggAvg, Column: "latency_ms"},
			{Op: scuba.AggP99, Column: "latency_ms"},
		},
		GroupBy: []string{"service"},
		Limit:   5,
	}
	res, err := l.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntop services before restart:")
	fmt.Print(scuba.FormatResult(q, res.Rows(q)))

	// ---- The fast restart (Figures 6 and 7) ----
	fmt.Println("shutting down through shared memory...")
	info, err := l.Shutdown()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  copied %d tables, %d blocks, %.1f MB to shm in %v\n",
		info.Tables, info.Blocks, float64(info.BytesCopied)/(1<<20),
		info.Duration.Round(time.Millisecond))

	// ---- "New process": recover from shared memory ----
	l2, err := scuba.NewLeaf(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := l2.Start(); err != nil {
		log.Fatal(err)
	}
	rec := l2.Recovery()
	fmt.Printf("new process recovered via %s: %d blocks, %.1f MB in %v\n",
		rec.Path, rec.Blocks, float64(rec.BytesRestored)/(1<<20),
		rec.Duration.Round(time.Millisecond))

	res2, err := l2.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntop services after restart (identical):")
	fmt.Print(scuba.FormatResult(q, res2.Rows(q)))
}
