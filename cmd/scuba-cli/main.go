// Command scuba-cli talks to running scubad leaves: it loads synthetic
// data, runs aggregation queries (fanned out over all leaves, Scuba-style),
// reports stats, and asks leaves to shut down cleanly for upgrades.
//
// Usage:
//
//	scuba-cli produce -scribe :7001 -category service_logs -rows 100000
//	scuba-cli -addrs :8001,:8002 load -table service_logs -rows 100000
//	scuba-cli -addrs :8001,:8002 query -table service_logs -group-by service -agg count,avg:latency_ms
//	scuba-cli -addrs :8001 stats
//	scuba-cli stats -http :8081            # a daemon's /metrics (Prometheus) + live /debug/recovery
//	scuba-cli health -agg :9001 -watch 2s  # live cluster health from __system tables
//	scuba-cli profile -agg :9001 -top 15   # hottest functions from __system.profiles
//	scuba-cli -addrs :9001 trace           # per-leaf waterfall of the latest query, from __system.traces
//	scuba-cli -addrs :8001 trace -restart  # the newest restart, span by span, from __system.traces
//	scuba-cli -addrs :8001 shutdown [-disk]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"scuba"
	"scuba/internal/aggregator"
	"scuba/internal/scribe"
	"scuba/internal/tailer"
)

func main() {
	addrs := flag.String("addrs", "127.0.0.1:8001", "comma-separated leaf addresses")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: scuba-cli -addrs ... {load|query|stats|health|profile|trace|shutdown} [flags]")
		os.Exit(2)
	}

	var clients []*scuba.Client
	for _, a := range strings.Split(*addrs, ",") {
		clients = append(clients, scuba.DialLeaf(strings.TrimSpace(a)))
	}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()

	cmd, args := flag.Arg(0), flag.Args()[1:]
	switch cmd {
	case "produce":
		runProduce(args)
	case "load":
		runLoad(clients, args)
	case "query":
		runQuery(clients, args)
	case "stats":
		runStats(clients, args)
	case "health":
		runHealth(args)
	case "profile":
		runProfile(args)
	case "trace":
		runTrace(clients[0], args)
	case "shutdown":
		runShutdown(clients, args)
	default:
		log.Fatalf("unknown command %q", cmd)
	}
}

// runProduce appends synthetic rows to a remote scribed, standing in for
// the product log calls of Figure 1 (tailer daemons move them to leaves).
func runProduce(args []string) {
	fs := flag.NewFlagSet("produce", flag.ExitOnError)
	scribeAddr := fs.String("scribe", "127.0.0.1:7001", "scribed address")
	category := fs.String("category", "service_logs", "Scribe category")
	rows := fs.Int("rows", 100000, "rows to produce")
	seed := fs.Int64("seed", 42, "generator seed")
	fs.Parse(args) //nolint:errcheck

	gen := generatorFor(*category, *seed)
	c := scribe.Dial(*scribeAddr)
	defer c.Close()
	start := time.Now()
	for i := 0; i < *rows; i++ {
		payload, err := scuba.EncodeRow(gen.Next())
		if err != nil {
			log.Fatal(err)
		}
		if _, err := c.Append(*category, payload); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("produced %d rows to %q on %s in %v\n",
		*rows, *category, *scribeAddr, time.Since(start).Round(time.Millisecond))
}

func generatorFor(table string, seed int64) *scuba.Workload {
	switch table {
	case "error_events":
		return scuba.ErrorEvents(seed, time.Now().Unix()-3600)
	case "ads_revenue":
		return scuba.AdsRevenue(seed, time.Now().Unix()-3600)
	default:
		return scuba.ServiceLogs(seed, time.Now().Unix()-3600)
	}
}

func runLoad(clients []*scuba.Client, args []string) {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	tableName := fs.String("table", "service_logs", "table to load")
	rows := fs.Int("rows", 100000, "rows to load")
	seed := fs.Int64("seed", 42, "generator seed")
	fs.Parse(args) //nolint:errcheck

	gen := generatorFor(*tableName, *seed)

	targets := make([]tailer.Target, len(clients))
	for i, c := range clients {
		targets[i] = c
	}
	placer := scuba.NewPlacer(targets, *seed)
	start := time.Now()
	for sent := 0; sent < *rows; sent += 1000 {
		n := min(1000, *rows-sent)
		if _, err := placer.Place(*tableName, gen.NextBatch(n)); err != nil {
			log.Fatal(err)
		}
	}
	st := placer.Stats()
	fmt.Printf("loaded %d rows into %q across %d leaves in %v\n",
		st.RowsPlaced, *tableName, len(clients), time.Since(start).Round(time.Millisecond))
	for i, n := range st.PerTarget {
		fmt.Printf("  leaf %d: %d batches\n", i, n)
	}
}

func runQuery(clients []*scuba.Client, args []string) {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	tableName := fs.String("table", "service_logs", "table to query")
	from := fs.Int64("from", 0, "start of time range (unix seconds)")
	to := fs.Int64("to", 1<<40, "end of time range (unix seconds)")
	groupBy := fs.String("group-by", "", "comma-separated group-by columns")
	aggs := fs.String("agg", "count", "comma-separated aggs: count,sum:col,avg:col,min:col,max:col,p50:col,p90:col,p99:col,distinct:col")
	where := fs.String("where", "", "filter: col=value | col>value | col<value (one)")
	limit := fs.Int("limit", 20, "max groups")
	bucket := fs.Int64("bucket", 0, "time bucket in seconds (0 = no series)")
	fs.Parse(args) //nolint:errcheck

	q := &scuba.Query{Table: *tableName, From: *from, To: *to, Limit: *limit, TimeBucketSeconds: *bucket}
	if *groupBy != "" {
		q.GroupBy = strings.Split(*groupBy, ",")
	}
	for _, a := range strings.Split(*aggs, ",") {
		op, col, _ := strings.Cut(a, ":")
		agg := scuba.Aggregation{Column: col}
		switch op {
		case "count":
			agg.Op = scuba.AggCount
		case "sum":
			agg.Op = scuba.AggSum
		case "avg":
			agg.Op = scuba.AggAvg
		case "min":
			agg.Op = scuba.AggMin
		case "max":
			agg.Op = scuba.AggMax
		case "p50":
			agg.Op = scuba.AggP50
		case "p90":
			agg.Op = scuba.AggP90
		case "p99":
			agg.Op = scuba.AggP99
		case "distinct":
			agg.Op = scuba.AggCountDistinct
		default:
			log.Fatalf("unknown aggregation %q", op)
		}
		q.Aggregations = append(q.Aggregations, agg)
	}
	if *where != "" {
		f, err := parseFilter(*where)
		if err != nil {
			log.Fatal(err)
		}
		q.Filters = []scuba.Filter{f}
	}

	targets := make([]aggregator.LeafTarget, len(clients))
	for i, c := range clients {
		targets[i] = unansweredToStderr{c}
	}
	agg := aggregator.New(targets)
	start := time.Now()
	res, err := agg.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(scuba.FormatResult(q, res.Rows(q)))
	fmt.Printf("\n%d/%d leaves answered (%.0f%% of data), %d rows scanned, %d blocks skipped, %v\n",
		res.LeavesAnswered, res.LeavesTotal, 100*res.Coverage(),
		res.RowsScanned, res.BlocksSkipped, time.Since(start).Round(time.Millisecond))
}

// unansweredToStderr says why a leaf did not answer. To the aggregator that
// is coverage, not an error, and the reason — "peer speaks protocol < 4" from
// a leaf a release behind, a refused connection — would go unsaid under the
// "1/2 leaves answered" line.
type unansweredToStderr struct{ *scuba.Client }

func (u unansweredToStderr) QueryShards(q *scuba.Query, shards []int, tc scuba.TraceContext) (*scuba.Result, *scuba.ExecStats, error) {
	res, exec, err := u.Client.QueryShards(q, shards, tc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scuba-cli: unanswered: %v\n", err)
	}
	return res, exec, err
}

func parseFilter(s string) (scuba.Filter, error) {
	for _, op := range []struct {
		sym string
		op  scuba.Filter
	}{
		{">=", scuba.Filter{Op: scuba.OpGe}},
		{"<=", scuba.Filter{Op: scuba.OpLe}},
		{"!=", scuba.Filter{Op: scuba.OpNe}},
		{"=", scuba.Filter{Op: scuba.OpEq}},
		{">", scuba.Filter{Op: scuba.OpGt}},
		{"<", scuba.Filter{Op: scuba.OpLt}},
	} {
		if col, val, ok := strings.Cut(s, op.sym); ok {
			f := op.op
			f.Column = col
			if n, err := strconv.ParseInt(val, 10, 64); err == nil {
				f.Int = n
				f.Float = float64(n)
			}
			f.Str = val
			return f, nil
		}
	}
	return scuba.Filter{}, fmt.Errorf("cannot parse filter %q", s)
}

func runStats(clients []*scuba.Client, args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	httpAddr := fs.String("http", "", "scrape a daemon's -http observability listener instead of the stats RPC")
	fs.Parse(args) //nolint:errcheck
	if *httpAddr != "" {
		scrapeObs(*httpAddr)
		return
	}
	fmt.Printf("%-6s %-16s %7s %8s %12s %14s %12s\n",
		"leaf", "state", "tables", "blocks", "rows", "bytes", "free")
	for i, c := range clients {
		st, err := c.Stats()
		if err != nil {
			fmt.Printf("%-6d unreachable: %v\n", i, err)
			continue
		}
		fmt.Printf("%-6d %-16s %7d %8d %12d %14d %12d\n",
			st.ID, st.State, st.Tables, st.Blocks, st.Rows, st.Bytes, st.FreeMemory)
	}
}

// scrapeObs fetches /metrics and /debug/recovery from a daemon's -http
// listener and prints the Prometheus exposition, then the live recovery
// state. A restart's spans are read with `trace -restart`, its flight-recorder
// events from __system.recorder.
func scrapeObs(addr string) {
	body, err := httpGet(addr, "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== metrics ==")
	fmt.Print(body)

	recBody, err := httpGet(addr, "/debug/recovery")
	if err != nil {
		log.Fatal(err)
	}
	var dump struct {
		Recovery json.RawMessage `json:"recovery"`
	}
	if err := json.Unmarshal([]byte(recBody), &dump); err != nil {
		log.Fatalf("bad /debug/recovery JSON: %v", err)
	}
	fmt.Println("== recovery ==")
	if dump.Recovery != nil {
		printRecovery(dump.Recovery)
	}
}

// printRecovery renders the /debug/recovery payload: the overall path, then
// — the degraded-recovery story — each quarantined table and where its data
// came from instead, so an operator can see at a glance which tables paid
// disk-recovery time and which came up empty.
func printRecovery(b json.RawMessage) {
	var rec scuba.RecoveryInfo
	if err := json.Unmarshal(b, &rec); err != nil || rec.Path == "" {
		fmt.Printf("recovery: %s\n", b)
		return
	}
	fmt.Printf("recovery: path=%s tables=%d blocks=%d %.1f MB in %v (workers=%d quarantined=%d fellBack=%v)\n",
		rec.Path, rec.Tables, rec.Blocks, float64(rec.BytesRestored)/(1<<20),
		rec.Duration.Round(time.Millisecond), rec.Workers, rec.Quarantined, rec.FellBack)
	if rec.Path == scuba.RecoveryShmView || rec.ServedFromShm > 0 || rec.PromotedBlocks > 0 {
		fmt.Printf("  instant-on: %d blocks still served from shm, %d promoted to heap\n",
			rec.ServedFromShm, rec.PromotedBlocks)
	}
	for _, tr := range rec.PerTablePath {
		line := fmt.Sprintf("  table %-20q %s", tr.Table, tr.Path)
		if tr.Reason != "" {
			line += "  (" + tr.Reason + ")"
		}
		fmt.Println(line)
	}
}

// httpGet fetches path from a daemon's -http address, http:// by default.
func httpGet(addr, path string) (string, error) {
	url := addr + path
	if !strings.Contains(addr, "://") {
		url = "http://" + url
	}
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("%s: %s", url, resp.Status)
	}
	return string(b), nil
}

func runShutdown(clients []*scuba.Client, args []string) {
	fs := flag.NewFlagSet("shutdown", flag.ExitOnError)
	disk := fs.Bool("disk", false, "shut down without shared memory (disk-only)")
	fs.Parse(args) //nolint:errcheck
	for i, c := range clients {
		info, err := c.Shutdown(!*disk)
		if err != nil {
			log.Fatalf("leaf %d: %v", i, err)
		}
		fmt.Printf("leaf %d drained: %d tables, %d blocks, %.1f MB in %v (shm=%v)\n",
			i, info.Tables, info.Blocks, float64(info.BytesCopied)/(1<<20),
			info.Duration.Round(time.Millisecond), info.ToShm)
	}
}
