// Command scuba-aggd runs one Scuba aggregator server (§2, Figure 1): it
// distributes every query to all configured leaf servers and merges the
// partial results as they arrive, reporting coverage so dashboards can show
// how much data answered while leaves restart.
//
// Usage:
//
//	scuba-aggd -addr 127.0.0.1:9001 -leaves 127.0.0.1:8001,127.0.0.1:8002
//	scuba-cli -addrs 127.0.0.1:9001 query -table service_logs ...
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"scuba/internal/aggregator"
	"scuba/internal/fault"
	"scuba/internal/metrics"
	"scuba/internal/obs"
	"scuba/internal/profile"
	"scuba/internal/rowblock"
	"scuba/internal/wire"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:9001", "listen address")
		leaves      = flag.String("leaves", "", "comma-separated leaf addresses")
		leafTimeout = flag.Duration("leaf-timeout", 10*time.Second, "abandon leaves slower than this per query; their data is reported missing from coverage (0 = wait forever)")
		faultSpec   = flag.String("fault", "", "arm fault-injection points for chaos testing, e.g. 'wire.read=delay:500ms;count=10' (see internal/fault)")
		httpAddr    = flag.String("http", "", "observability listen address serving /metrics and /debug/pprof ('' disables)")
		slowQuery   = flag.Duration("slow-query", 0, "queries at or above this duration are marked slow in __system.traces and trigger a profile (0 = adaptive: slower than the running p99)")
		replication = flag.Int("replication", 0, "shard replication factor R: each shard lives on R leaves and queries fail over to a replica while the primary restarts (0 = unsharded full fan-out)")
		numShards   = flag.Int("num-shards", 0, "shards per table under -replication (0 = 2x leaf count)")
		machineSpec = flag.String("machines", "", "comma-separated machine index per leaf (parallel to -leaves) so shard replicas land on distinct machines; '' = every leaf its own machine")
		telemetry   = flag.Duration("telemetry-interval", 0, "self-telemetry period: snapshot this aggregator's own metrics and query spans into __system tables (0 disables)")
		profEvery   = flag.Duration("profile-interval", time.Minute, "continuous profiler steady cadence: capture a CPU window + heap delta into __system.profiles (0 disables; slow queries also trigger tagged captures)")
		profMutex   = flag.Bool("profile-contention", false, "enable mutex/block profiling so /debug/pprof/mutex and /debug/pprof/block return real data")
	)
	flag.Parse()
	if *leaves == "" {
		log.Fatal("scuba-aggd: -leaves is required")
	}
	if *faultSpec != "" {
		if err := fault.ArmSpec(*faultSpec); err != nil {
			log.Fatalf("scuba-aggd: -fault: %v", err)
		}
		log.Printf("fault injection armed: %s", fault.String())
	}
	var addrs []string
	for _, a := range strings.Split(*leaves, ",") {
		addrs = append(addrs, strings.TrimSpace(a))
	}
	reg := metrics.NewRegistry()
	reg.EnableRuntimeMetrics()
	reg.EnableProcessMetrics()
	if *profMutex {
		profile.EnableContention()
	}
	clients := make([]*wire.Client, len(addrs))
	for i, a := range addrs {
		clients[i] = wire.Dial(a)
	}

	// Self-telemetry (Scuba-on-Scuba): the aggregator's own metric
	// snapshots and query spans are delivered into __system tables through
	// the first leaf that will take them, and served back out over the
	// ordinary query path; each leaf's own sink writes that leaf's facts. The
	// sink refuses the spans of __system-table queries, so telemetry queries
	// never generate telemetry.
	ob := obs.New(reg, nil)
	var sink *obs.Sink
	if *telemetry > 0 || *profEvery > 0 {
		emit := func(table string, rows []rowblock.Row) error {
			var lastErr error
			for _, c := range clients {
				if err := c.AddRows(table, rows); err != nil {
					lastErr = err
					continue
				}
				return nil
			}
			return lastErr
		}
		snapEvery := *telemetry
		if snapEvery <= 0 {
			snapEvery = -1 // delivery-only: no self-snapshot loop
		}
		sink = obs.NewSink(obs.SinkConfig{
			Emit:            emit,
			Source:          *addr,
			Registry:        reg,
			MetricsInterval: snapEvery,
			OnError:         func(err error) { log.Printf("telemetry: %v", err) },
		})
		defer sink.Close()
		if *telemetry > 0 {
			ob.OnSpans(sink.RecordSpans)
		}
	}
	// Continuous profiler: steady captures plus anomaly captures when the
	// tracer marks a query slow, each tagged with the trace ID so scuba-cli
	// profile links back to the waterfall.
	if *profEvery > 0 {
		prof := profile.New(profile.Config{
			Sink:     sink,
			Source:   *addr,
			Registry: reg,
			Interval: *profEvery,
		})
		defer prof.Close()
		ob.OnSpans(prof.OnSpans)
		log.Printf("continuous profiler on: %v cadence into %s", *profEvery, obs.SystemProfilesTable)
	}
	targets := make([]aggregator.LeafTarget, len(addrs))
	for i := range clients {
		targets[i] = clients[i]
	}
	agg := aggregator.New(targets)
	agg.Metrics = reg
	agg.LeafTimeout = *leafTimeout
	agg.Tracer = ob.Tracer(obs.TracerOptions{SlowThreshold: *slowQuery})
	agg.Labels = addrs
	if *replication > 0 {
		var machines []int
		if *machineSpec != "" {
			for _, f := range strings.Split(*machineSpec, ",") {
				m, err := strconv.Atoi(strings.TrimSpace(f))
				if err != nil {
					log.Fatalf("scuba-aggd: -machines: %v", err)
				}
				machines = append(machines, m)
			}
			if len(machines) != len(addrs) {
				log.Fatalf("scuba-aggd: -machines lists %d entries for %d leaves", len(machines), len(addrs))
			}
		}
		router := wire.ShardRouting(agg, addrs, machines, *replication, *numShards)
		log.Printf("shard routing on: %s", router.Map())
	}
	srv, err := wire.NewAggServerOver(agg, *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("scuba-aggd serving %d leaves on %s (leaf timeout %v)", len(addrs), srv.Addr(), *leafTimeout)
	if *httpAddr != "" {
		hs, err := obs.StartHTTP(*httpAddr, obs.Handler(obs.HandlerConfig{Registry: reg}))
		if err != nil {
			log.Fatal(err)
		}
		defer hs.Close()
		log.Printf("observability on http://%s (/metrics /debug/pprof)", hs.Addr())
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	<-sigs
	srv.Close()
	log.Println("scuba-aggd: bye")
}
