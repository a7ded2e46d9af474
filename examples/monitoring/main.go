// Monitoring: the use case from the paper's introduction — engineers use
// Scuba to detect user-facing errors, and "even 10 minutes is a long
// downtime for the critical applications that rely on Scuba". This example
// runs a live error-monitoring pipeline (Scribe -> tailers -> leaves ->
// aggregator), injects an error spike, and shows the detector noticing it.
// Mid-stream it restarts a leaf through shared memory to demonstrate that
// monitoring barely blips: queries return partial results while the leaf is
// down for milliseconds, then full results again.
//
// Usage:
//
//	go run ./examples/monitoring
package main

import (
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"scuba"
)

const table = "error_events"

func main() {
	workDir, err := os.MkdirTemp("", "scuba-monitoring-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(workDir)

	c, err := scuba.NewCluster(scuba.ClusterConfig{
		Machines:            2,
		LeavesPerMachine:    4,
		ShmDir:              workDir,
		DiskRoot:            workDir + "/disk",
		Namespace:           "monitoring",
		MemoryBudgetPerLeaf: 1 << 30,
	})
	if err != nil {
		log.Fatal(err)
	}

	bus := scuba.NewBus(0)
	placer := scuba.NewPlacer(c.Targets(), 7)
	tl := scuba.NewTailer(scuba.TailerConfig{Category: table, BatchRows: 500}, bus, placer, 0)
	agg := c.NewAggregator()

	now := time.Now().Unix()
	gen := scuba.ErrorEvents(3, now-600)

	produce := func(n int, spike bool) {
		for i := 0; i < n; i++ {
			row := gen.Next()
			if spike {
				// An incident: one product starts throwing timeouts.
				row.Cols["product"] = scuba.String("android")
				row.Cols["error"] = scuba.String("timeout")
				row.Cols["severity"] = scuba.Int64(3)
			}
			payload, err := scuba.EncodeRow(row)
			if err != nil {
				log.Fatal(err)
			}
			bus.Append(table, payload)
		}
		if _, err := tl.DrainOnce(); err != nil {
			log.Fatal(err)
		}
	}

	errorRate := func() (map[string]float64, float64) {
		q := &scuba.Query{
			Table: table, From: 0, To: 1 << 40,
			Filters:      []scuba.Filter{{Column: "severity", Op: scuba.OpGe, Int: 3}},
			Aggregations: []scuba.Aggregation{{Op: scuba.AggCount}},
			GroupBy:      []string{"product", "error"},
			Limit:        3,
		}
		res, err := agg.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		out := make(map[string]float64)
		for _, r := range res.Rows(q) {
			out[r.Key[0]+"/"+r.Key[1]] = r.Values[0]
		}
		return out, res.Coverage()
	}

	fmt.Println("baseline traffic...")
	produce(20000, false)
	base, cov := errorRate()
	fmt.Printf("  severe errors by product/error (coverage %.0f%%): %v\n\n", cov*100, base)

	fmt.Println("restarting one leaf through shared memory mid-stream...")
	rs := c.Node(0).Restart(scuba.RolloverConfig{UseShm: true, TargetVersion: 2})
	if rs.Err != "" {
		log.Fatal(rs.Err)
	}
	fmt.Printf("  leaf 0 restarted via %s in %v\n",
		rs.Recovery, rs.Duration.Round(time.Millisecond))
	produce(5000, false)
	_, covDuring := errorRate()
	fmt.Printf("  monitoring kept working (coverage %.0f%% during/after the restart)\n\n", covDuring*100)

	fmt.Println("injecting an incident: android timeouts...")
	produce(8000, true)
	after, cov2 := errorRate()
	fmt.Printf("  severe errors by product/error (coverage %.0f%%):\n", cov2*100)
	for k, v := range after {
		fmt.Printf("    %-24s %8.0f\n", k, v)
	}
	spike := after["android/timeout"]
	if spike > 4*maxValue(base) {
		fmt.Printf("\nALERT: android/timeout at %.0f severe errors — %.1fx the baseline peak\n",
			spike, spike/maxValue(base))
	} else {
		fmt.Println("\nno alert (unexpected — spike not visible)")
	}

	// The dashboard panel behind the alert: severe errors per 10 minutes.
	series := &scuba.Query{
		Table: table, From: 0, To: 1 << 40,
		TimeBucketSeconds: 600,
		Filters:           []scuba.Filter{{Column: "severity", Op: scuba.OpGe, Int: 3}},
		Aggregations:      []scuba.Aggregation{{Op: scuba.AggCount}},
	}
	res, err := agg.Query(series)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nsevere errors per 10-minute bucket (the spike is the incident):")
	rows := res.Rows(series)
	peak := 1.0
	for _, r := range rows {
		if r.Values[0] > peak {
			peak = r.Values[0]
		}
	}
	for _, r := range rows {
		bar := int(r.Values[0] / peak * 40)
		fmt.Printf("  %-12s %6.0f %s\n", r.Key[0], r.Values[0], strings.Repeat("#", bar))
	}
}

func maxValue(m map[string]float64) float64 {
	mx := 1.0
	for _, v := range m {
		if v > mx {
			mx = v
		}
	}
	return mx
}
