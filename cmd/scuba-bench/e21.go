package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"scuba"
)

// ---- E21: crash-recovery time — block images + WAL replay vs disk translate ----

// e21Cell is one tail-length measurement in BENCH_e21.json.
type e21Cell struct {
	TailPct     int     `json:"tail_pct"`
	TailRows    int     `json:"tail_rows"`
	WALMillis   float64 `json:"wal_ms"`
	DiskMillis  float64 `json:"disk_ms"`
	Speedup     float64 `json:"speedup"`
	ReplayRows  int64   `json:"replayed_rows"`
	SnapBlocks  int     `json:"snapshot_blocks"`
	CountChecks bool    `json:"count_checks"`
}

type e21Report struct {
	Rows    int       `json:"rows"`
	Cells   []e21Cell `json:"cells"`
	Pass5x  bool      `json:"pass_5x"`
	BestFat float64   `json:"best_speedup"`
}

// runE21 measures the tentpole of the crash-path-parity work: after a crash
// (no shm, valid bit unset), recovery by block images + WAL tail replay
// versus the paper's full row-format disk translate, over the same data. The
// translate side is the bench-only row codec run over the recovered leaf's
// blocks (translateRowFormat): the leaf itself no longer writes that format.
// The WAL tail length is the lever: at 0% everything is image-covered (pure
// image load), and each extra point of tail pays batch-at-a-time replay. The
// acceptance bar is the issue's: images+replay at least 5x faster than the
// translate.
func runE21() error {
	// Below ~a million rows the fixed Start cost (shm scan, flight
	// recorder, table bring-up) dominates both paths and the comparison
	// measures overhead, not recovery.
	totalRows := *rowsFlag
	if totalRows < 1000000 {
		totalRows = 1000000
	}

	rep := e21Report{Rows: totalRows}
	fmt.Printf("%8s | %10s %10s %8s\n", "tail", "wal", "disk", "speedup")

	for _, tailPct := range []int{0, 10, 25} {
		cell, err := e21Cell1(totalRows, tailPct)
		if err != nil {
			return err
		}
		rep.Cells = append(rep.Cells, cell)
		fmt.Printf("%7d%% | %8.1fms %8.1fms %7.1fx\n",
			tailPct, cell.WALMillis, cell.DiskMillis, cell.Speedup)
		if cell.Speedup > rep.BestFat {
			rep.BestFat = cell.Speedup
		}
	}
	rep.Pass5x = rep.BestFat >= 5

	verdict := "PASS"
	if !rep.Pass5x {
		verdict = "FAIL"
	}
	fmt.Printf("\ncrash recovery via block images+WAL: best speedup %.1fx over the disk translate [%s, bar is 5x]\n",
		rep.BestFat, verdict)

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_e21.json", append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote BENCH_e21.json")
	fmt.Println("paper §4.3: a crashed leaf pays the full disk translate; block images + the WAL")
	fmt.Println("give crashes the same near-translate-free restart as upgrades")
	return nil
}

// e21Cell1 builds one dataset with (100-tailPct)% of rows in block images
// and tailPct% only in the WAL, crashes the leaf, and times both recoveries
// over identical data.
func e21Cell1(totalRows, tailPct int) (e21Cell, error) {
	cell := e21Cell{TailPct: tailPct, TailRows: totalRows * tailPct / 100}
	baseRows := totalRows - cell.TailRows

	dir, err := os.MkdirTemp("", "scuba-e21-")
	if err != nil {
		return cell, err
	}
	defer os.RemoveAll(dir)
	cfg := scuba.LeafConfig{
		ID:           0,
		Shm:          scuba.ShmOptions{Dir: dir, Namespace: "e21"},
		DiskRoot:     dir + "/disk",
		MemoryBudget: 8 << 30,
		WALDir:       dir + "/wal",
		// Inline fsync: acks are durable and no flusher goroutine outlives
		// the "crashed" (abandoned) leaf objects below.
		WALSyncInterval: 0,
	}

	load := func(l *scuba.Leaf, gen *scuba.Workload, rows int) error {
		for sent := 0; sent < rows; sent += 10000 {
			n := rows - sent
			if n > 10000 {
				n = 10000
			}
			if err := l.AddRows("service_logs", gen.NextBatch(n)); err != nil {
				return err
			}
		}
		return nil
	}
	count := func(l *scuba.Leaf) (int, error) {
		q := &scuba.Query{Table: "service_logs", From: 0, To: 1 << 62,
			Aggregations: []scuba.Aggregation{{Op: scuba.AggCount}}}
		res, err := l.Query(q)
		if err != nil {
			return 0, err
		}
		rows := res.Rows(q)
		if len(rows) == 0 {
			return 0, nil
		}
		return int(rows[0].Values[0]), nil
	}

	// Build: base rows sealed and persisted as images; tail rows acked but
	// never persisted, so they live only in the WAL.
	l0, err := scuba.NewLeaf(cfg)
	if err != nil {
		return cell, err
	}
	if err := l0.Start(); err != nil {
		return cell, err
	}
	gen := scuba.ServiceLogs(21, 1700000000)
	if err := load(l0, gen, baseRows); err != nil {
		return cell, err
	}
	if err := l0.SealAll(); err != nil {
		return cell, err
	}
	if n, err := l0.SyncToDisk(); err != nil {
		return cell, err
	} else {
		cell.SnapBlocks = n
	}
	if err := load(l0, gen, cell.TailRows); err != nil {
		return cell, err
	}
	// Crash: l0 is abandoned — no shutdown, no valid bit.

	// Path A: block images + WAL tail replay.
	l1, err := scuba.NewLeaf(cfg)
	if err != nil {
		return cell, err
	}
	start := time.Now()
	if err := l1.Start(); err != nil {
		return cell, err
	}
	cell.WALMillis = float64(time.Since(start).Microseconds()) / 1000
	info := l1.Recovery()
	if string(info.Path) != "wal" {
		return cell, fmt.Errorf("e21: crash recovery took path %q, want wal", info.Path)
	}
	cell.ReplayRows = info.WALRowsReplayed
	got, err := count(l1)
	if err != nil {
		return cell, err
	}
	if got != totalRows {
		return cell, fmt.Errorf("e21: WAL recovery served %d rows, want %d", got, totalRows)
	}

	// Path B: the pre-WAL baseline — the same rows as row-format files, read
	// and translated back.
	if err := l1.SealAll(); err != nil {
		return cell, err
	}
	tr, err := translateRowFormat(dir+"/rowformat", l1)
	if err != nil {
		return cell, err
	}
	cell.DiskMillis = float64((tr.read + tr.translate).Microseconds()) / 1000
	if tr.rows != totalRows {
		return cell, fmt.Errorf("e21: row-format translate rebuilt %d rows, want %d", tr.rows, totalRows)
	}
	cell.CountChecks = true
	if cell.WALMillis > 0 {
		cell.Speedup = cell.DiskMillis / cell.WALMillis
	}
	return cell, nil
}
