package main

// scuba-cli health renders live cluster health from the cluster's own
// self-telemetry: each leaf's newest __system.metrics snapshot, written by
// that leaf's own sink and queried back through the aggregator, beside the
// aggregator's shard map. There is no side channel — if health renders, the
// whole Scuba-on-Scuba loop (snapshot → sink → leaf ingest → fan-out query)
// is working.

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"time"

	"scuba"
)

func runHealth(args []string) {
	fs := flag.NewFlagSet("health", flag.ExitOnError)
	aggAddr := fs.String("agg", "127.0.0.1:9001", "aggregator address (its leaves must run with -telemetry-interval)")
	window := fs.Duration("window", 2*time.Minute, "how far back to look for telemetry rows")
	watch := fs.Duration("watch", 0, "top-style refresh period (0 = render once)")
	format := fs.String("format", "table", "output format: table or json (json implies -watch 0)")
	fs.Parse(args) //nolint:errcheck
	if *format != "table" && *format != "json" {
		log.Fatalf("health: -format %q (want table or json)", *format)
	}

	c := scuba.DialLeaf(*aggAddr)
	defer c.Close()

	if *format == "json" {
		rep, err := gatherHealth(c, *aggAddr, *window)
		if err != nil {
			log.Fatal(err)
		}
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(append(out, '\n')) //nolint:errcheck
		return
	}

	if *watch <= 0 {
		if err := renderHealth(os.Stdout, c, *aggAddr, *window); err != nil {
			log.Fatal(err)
		}
		return
	}
	for {
		fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
		if err := renderHealth(os.Stdout, c, *aggAddr, *window); err != nil {
			fmt.Printf("health: %v\n", err)
		}
		fmt.Printf("\nrefreshing every %v (ctrl-c to stop)\n", *watch)
		time.Sleep(*watch)
	}
}

// leafHealth is one leaf's newest __system.metrics snapshot and its status in
// the shard map. The JSON tags shape `health -format json` output for scripts
// and dashboards.
type leafHealth struct {
	Leaf        string  `json:"leaf"`
	Status      string  `json:"status"`
	Recovery    string  `json:"recovery"`
	Rows        float64 `json:"rows"`
	Queries     float64 `json:"queries"`
	QueryErrors float64 `json:"query_errors"`
	CacheHits   float64 `json:"decode_cache_hits"`
	CacheMisses float64 `json:"decode_cache_misses"`
	FreeBytes   float64 `json:"free_bytes"`
	Quarantined bool    `json:"quarantined"`
}

// healthReport is the machine-readable form of the health screen.
type healthReport struct {
	Aggregator     string       `json:"aggregator"`
	GeneratedAt    int64        `json:"generated_at"`
	WindowSeconds  int64        `json:"window_seconds"`
	Leaves         []leafHealth `json:"leaves"`
	Active         int          `json:"active"`
	LeavesAnswered int          `json:"leaves_answered"`
	LeavesTotal    int          `json:"leaves_total"`
	Coverage       float64      `json:"coverage"`
	// TracedQueries/SlowQueries are -1 when aggregator telemetry is off.
	TracedQueries float64 `json:"traced_queries"`
	SlowQueries   float64 `json:"slow_queries"`
}

// gatherHealth reads every leaf's newest snapshot and the coverage counters —
// the shared source for both the table and JSON renderings.
func gatherHealth(c *scuba.Client, aggAddr string, window time.Duration) (*healthReport, error) {
	now := time.Now().Unix()
	from := now - int64(window/time.Second)

	q := &scuba.Query{
		Table:             scuba.SystemMetricsTable,
		From:              from,
		To:                now + 1,
		GroupBy:           []string{"source", "name"},
		TimeBucketSeconds: 1,
		Aggregations:      []scuba.Aggregation{{Op: scuba.AggMax, Column: "value"}},
	}
	res, err := c.Query(q)
	if err != nil {
		return nil, fmt.Errorf("querying %s through %s: %w", scuba.SystemMetricsTable, aggAddr, err)
	}
	// Rows come in time order, so a source's newest second replaces what its
	// older ones said. Newest by time, not by the largest counter: a restarted
	// leaf's counters start again at zero.
	second := map[string]string{}
	snaps := map[string]map[string]float64{}
	for _, row := range res.Rows(q) {
		if source := row.Key[1]; second[source] != row.Key[0] {
			second[source], snaps[source] = row.Key[0], map[string]float64{}
		}
		snaps[row.Key[1]][row.Key[2]] = row.Values[0]
	}
	// The shard map says which leaves serve; an aggregator that does not
	// route by shard has none, and every leaf it reaches is ACTIVE.
	status := map[string]string{}
	if m, sts, _, err := c.ShardMap(); err == nil {
		for i := range min(len(m.Leaves), len(sts)) {
			status[m.Leaves[i].Name] = sts[i].String()
		}
	}
	rep := &healthReport{
		Aggregator:     aggAddr,
		GeneratedAt:    now,
		WindowSeconds:  int64(window / time.Second),
		LeavesAnswered: res.LeavesAnswered,
		LeavesTotal:    res.LeavesTotal,
		Coverage:       res.Coverage(),
		TracedQueries:  -1,
		SlowQueries:    -1,
	}
	for source, m := range snaps {
		if _, leaf := m["leaf_rows"]; !leaf {
			// An aggregator's own snapshot: its trace counters, written with
			// scuba-aggd -telemetry-interval.
			if n, ok := m["trace_count"]; ok {
				rep.TracedQueries = max(rep.TracedQueries, 0) + n
				rep.SlowQueries = max(rep.SlowQueries, 0) + m["trace_slow"]
			}
			continue
		}
		h := leafHealth{
			Leaf: source, Status: cmp.Or(status[source], "ACTIVE"),
			Rows: m["leaf_rows"], Queries: m["query_exec_count"], QueryErrors: m["query_exec_errors"],
			CacheHits: m["query_decode_cache_hits"], CacheMisses: m["query_decode_cache_misses"],
			FreeBytes: m["leaf_free_memory"], Quarantined: m["leaf_quarantined"] > 0,
		}
		for _, p := range []scuba.RecoveryPath{scuba.RecoveryNone, scuba.RecoveryMemory,
			scuba.RecoveryShmView, scuba.RecoveryMixed, scuba.RecoveryWAL, scuba.RecoveryDisk} {
			if m["leaf_recovery_"+scuba.CanonicalMetricName(string(p))] > 0 {
				h.Recovery = string(p)
			}
		}
		rep.Leaves = append(rep.Leaves, h)
		if h.Status == "ACTIVE" {
			rep.Active++
		}
	}
	sort.Slice(rep.Leaves, func(i, j int) bool { return rep.Leaves[i].Leaf < rep.Leaves[j].Leaf })
	return rep, nil
}

func renderHealth(w *os.File, c *scuba.Client, aggAddr string, window time.Duration) error {
	rep, err := gatherHealth(c, aggAddr, window)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "cluster health via %s (window %v, %s)\n\n",
		aggAddr, window, time.Unix(rep.GeneratedAt, 0).Format("15:04:05"))
	if len(rep.Leaves) == 0 {
		fmt.Fprintf(w, "no leaf snapshots in %s in the last %v — do the leaves run with -telemetry-interval?\n",
			scuba.SystemMetricsTable, window)
		return nil
	}

	fmt.Fprintf(w, "%-22s %-9s %-8s %12s %9s %7s %7s %9s\n",
		"leaf", "status", "recovery", "rows", "queries", "errors", "cache%", "free")
	for _, h := range rep.Leaves {
		note := ""
		if h.Quarantined {
			note = "  QUARANTINED"
		}
		fmt.Fprintf(w, "%-22s %-9s %-8s %12.0f %9.0f %7.0f %7s %9s%s\n",
			h.Leaf, h.Status, h.Recovery, h.Rows, h.Queries, h.QueryErrors,
			pct(h.CacheHits, h.CacheHits+h.CacheMisses), mb(h.FreeBytes), note)
	}

	// Shard/leaf coverage as this very query saw it: how much of the
	// cluster answered just now.
	fmt.Fprintf(w, "\nleaves: %d/%d active, %d/%d answered this query (%.0f%% of data)\n",
		rep.Active, len(rep.Leaves), rep.LeavesAnswered, rep.LeavesTotal, 100*rep.Coverage)

	// Slow-query rate from the aggregators' own metric snapshots (needs
	// scuba-aggd -telemetry-interval; silently n/a otherwise).
	if rep.TracedQueries >= 0 && rep.TracedQueries > 0 {
		fmt.Fprintf(w, "queries traced: %.0f, slow: %.0f (%s)\n",
			rep.TracedQueries, rep.SlowQueries, pct(rep.SlowQueries, rep.TracedQueries))
	} else {
		fmt.Fprintln(w, "slow-query rate: n/a (aggregator telemetry off)")
	}
	return nil
}

func pct(num, den float64) string {
	if den <= 0 {
		return "-"
	}
	return strconv.FormatFloat(100*num/den, 'f', 1, 64) + "%"
}

func mb(b float64) string {
	return strconv.FormatFloat(b/(1<<20), 'f', 0, 64) + "M"
}
