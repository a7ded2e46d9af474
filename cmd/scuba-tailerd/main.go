// Command scuba-tailerd runs one Scuba tailer as a daemon (§2, Figure 1):
// it pulls one table's rows out of a remote scribed and, every N rows or t
// seconds, places the batch on a leaf server chosen by two-random-choice
// (more free memory wins; restarting leaves are avoided).
//
// The tailer checkpoints its Scribe offset, so restarting the tailer —
// tailers roll over for code upgrades too — neither replays nor loses data.
//
// Usage:
//
//	scuba-tailerd -scribe 127.0.0.1:7001 -category service_logs \
//	  -leaves 127.0.0.1:8001,127.0.0.1:8002 -checkpoint /var/lib/scuba/tailer.ckpt
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"scuba/internal/metrics"
	"scuba/internal/obs"
	"scuba/internal/profile"
	"scuba/internal/rowblock"
	"scuba/internal/scribe"
	"scuba/internal/tailer"
	"scuba/internal/wire"
)

func main() {
	var (
		scribeAddr = flag.String("scribe", "127.0.0.1:7001", "scribed address")
		category   = flag.String("category", "service_logs", "Scribe category to tail")
		tableName  = flag.String("table", "", "destination table (default: category name)")
		leaves     = flag.String("leaves", "", "comma-separated leaf addresses")
		checkpoint = flag.String("checkpoint", "", "offset checkpoint file ('' disables)")
		batchRows  = flag.Int("batch-rows", 1000, "flush every N rows")
		interval   = flag.Duration("interval", time.Second, "flush partial batches this often")
		seed       = flag.Int64("seed", time.Now().UnixNano(), "placement randomness seed")
		httpAddr   = flag.String("http", "", "observability listen address serving /metrics and /debug/pprof ('' disables)")
		profEvery  = flag.Duration("profile-interval", time.Minute, "continuous profiler steady cadence: capture a CPU window + heap delta into __system.profiles via the leaves (0 disables)")
		profMutex  = flag.Bool("profile-contention", false, "enable mutex/block profiling so /debug/pprof/mutex and /debug/pprof/block return real data")
	)
	flag.Parse()
	if *leaves == "" {
		log.Fatal("scuba-tailerd: -leaves is required")
	}

	reg := metrics.NewRegistry()
	reg.EnableRuntimeMetrics()
	reg.EnableProcessMetrics()
	if *profMutex {
		profile.EnableContention()
	}
	if *httpAddr != "" {
		hs, err := obs.StartHTTP(*httpAddr, obs.Handler(obs.HandlerConfig{Registry: reg}))
		if err != nil {
			log.Fatal(err)
		}
		defer hs.Close()
		log.Printf("observability on http://%s (/metrics /debug/pprof)", hs.Addr())
	}

	var targets []tailer.Target
	var clients []*wire.Client
	for _, a := range strings.Split(*leaves, ",") {
		c := wire.Dial(strings.TrimSpace(a))
		targets = append(targets, c)
		clients = append(clients, c)
	}
	placer := tailer.NewPlacer(targets, *seed)

	// Continuous profiler: the tailer has no local leaf, so its profile
	// rows go to the first leaf that accepts them, same as the
	// aggregator's telemetry.
	if *profEvery > 0 {
		sink := obs.NewSink(obs.SinkConfig{
			Emit: func(table string, rows []rowblock.Row) error {
				var lastErr error
				for _, c := range clients {
					if err := c.AddRows(table, rows); err != nil {
						lastErr = err
						continue
					}
					return nil
				}
				return lastErr
			},
			Source:          "tailer:" + *category,
			Registry:        reg,
			MetricsInterval: -1, // delivery-only
			OnError:         func(err error) { log.Printf("telemetry: %v", err) },
		})
		defer sink.Close()
		prof := profile.New(profile.Config{
			Sink:     sink,
			Source:   "tailer:" + *category,
			Registry: reg,
			Interval: *profEvery,
		})
		defer prof.Close()
		log.Printf("continuous profiler on: %v cadence into %s", *profEvery, obs.SystemProfilesTable)
	}

	src := scribe.Dial(*scribeAddr)
	defer src.Close()

	cfg := tailer.Config{
		Category:      *category,
		Table:         *tableName,
		BatchRows:     *batchRows,
		FlushInterval: *interval,
		Metrics:       reg,
	}
	if *checkpoint != "" {
		cfg.Checkpoint = tailer.NewCheckpoint(*checkpoint)
	}
	tl := tailer.New(cfg, src, placer, 0)
	log.Printf("scuba-tailerd pumping %q from %s to %d leaves (from offset %d)",
		*category, *scribeAddr, len(targets), tl.Offset())

	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- tl.Run(stop) }()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigs:
		log.Printf("signal %v: draining", sig)
		close(stop)
		if err := <-done; err != nil {
			log.Fatalf("drain: %v", err)
		}
	case err := <-done:
		if err != nil {
			log.Fatalf("tailer: %v", err)
		}
	}
	st := placer.Stats()
	log.Printf("placed %d rows in %d batches (lost %d, bad %d); bye",
		st.RowsPlaced, st.Batches, tl.RowsLost, tl.RowsBad)
}
