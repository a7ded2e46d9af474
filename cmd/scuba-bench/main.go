// Command scuba-bench regenerates every quantitative claim in "Fast
// Database Restarts at Facebook" (the paper has no numbered tables; its
// evaluation is the set of numbers in §1, §4 and §6 plus the Figure 8
// dashboard). Each experiment measures the real implementation at laptop
// scale and, where the claim is about production scale, extrapolates with the
// calibrated simulator. EXPERIMENTS.md records paper-vs-measured. (E15, the
// restart-phase breakdown, and E22, the instant-on availability gap, are
// retired: `scuba-cli trace -restart` draws the former from the restart
// ledger and bench/'s restart_shm workload measures the latter. E18, E20 and
// E23 — tracing, sink and profiler overhead — are one experiment, "overhead".
// E9, fault injection into a restore, and E10, placement balance, are retired
// too: tier-1 tests carry both claims, DESIGN.md §4 names them.)
//
// Usage:
//
//	scuba-bench -exp all
//	scuba-bench -exp e1 -rows 400000
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"
)

var rowsFlag = flag.Int("rows", 200000, "base row count for the restart experiments")

type experiment struct {
	id   string
	desc string
	run  func() error
}

func main() {
	exp := flag.String("exp", "all", "experiment id (e1..e8, e11..e14, e16, overhead) or 'all'")
	flag.Parse()

	experiments := []experiment{
		{"e1", "restart from disk vs shared memory (2.5-3 h vs 2-3 min; read is 20-25 min of the disk path)", runE1},
		{"e2", "shutdown to shared memory (3-4 s at production scale)", runE2},
		{"e3", "full-cluster rollover duration (10-12 h disk vs <1 h shm)", runE3},
		{"e4", "Figure 8 dashboard: availability during rollover (>=98%)", runE4},
		{"e5", "weekly availability (93% -> 99.5%)", runE5},
		{"e6", "restart parallelism: k leaves on 1 machine vs k machines", runE6},
		{"e7", "column compression (~30x, >=2 methods per column)", runE7},
		{"e8", "§6 future work: columnar disk format removes the translate cost", runE8},
		{"e11", "query latency (subsecond over the full dataset)", runE11},
		{"e12", "flat memory footprint: one RBC at a time (§4.4)", runE12},
		{"e13", "batch-fraction tradeoff: why restart 2% at a time", runE13},
		{"e14", "parallel copy-out/copy-in: restart-path worker sweep", runE14},
		{"e16", "query p99 during a 5%-hung-leaf brownout (per-leaf deadline)", runE16},
		{"overhead", "tracing, self-telemetry sink and profiler overhead on the scan path (BENCH_overhead.json)", runOverhead},
	}

	ran := 0
	for _, e := range experiments {
		if *exp != "all" && !strings.EqualFold(*exp, e.id) {
			continue
		}
		fmt.Printf("==== %s: %s ====\n", strings.ToUpper(e.id), e.desc)
		start := time.Now()
		if err := e.run(); err != nil {
			log.Fatalf("%s: %v", e.id, err)
		}
		fmt.Printf("[%s done in %v]\n\n", e.id, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
