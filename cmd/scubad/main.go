// Command scubad runs one Scuba leaf server as a daemon: it recovers its
// data (from shared memory after a clean upgrade, from its block images and
// write-ahead log otherwise), serves add/query/stats RPCs over TCP, runs
// background disk sync and expiration, and exits when it receives a shutdown
// RPC or SIGTERM — after copying its tables to shared memory so its
// replacement restarts fast.
//
// A software upgrade is simply:
//
//	scuba-cli -addr :8001 shutdown     # old binary drains to /dev/shm, exits
//	scubad-new -id 0 -addr :8001 ...   # new binary recovers at memory speed
//
// Usage:
//
//	scubad -id 0 -addr 127.0.0.1:8001 -shm-dir /dev/shm -disk-root /var/lib/scuba
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"scuba"
)

func main() {
	var (
		id         = flag.Int("id", 0, "leaf ID (fixes the shared memory metadata location)")
		addr       = flag.String("addr", "127.0.0.1:8001", "listen address")
		shmDir     = flag.String("shm-dir", "/dev/shm", "shared memory directory (tmpfs)")
		namespace  = flag.String("namespace", "scuba", "shared memory namespace")
		diskRoot   = flag.String("disk-root", "./scuba-data", "block image store root (required)")
		noShm      = flag.Bool("no-memory-recovery", false, "always recover from disk")
		budget     = flag.Int64("memory-budget", 8<<30, "data budget in bytes, reported to tailers")
		maxAge     = flag.Int64("max-age", 0, "expire rows older than this many seconds (0 = keep)")
		maxBytes   = flag.Int64("max-bytes", 0, "per-table compressed byte cap (0 = no cap)")
		instantOn  = flag.Bool("instant-on", false, "serve queries zero-copy from mmap'd shm on restart; copy-in happens in the background")
		decCache   = flag.Int64("decode-cache-bytes", 64<<20, "decoded-column cache budget in bytes, shared by the leaf's tables (0 disables)")
		expireEach = flag.Duration("expire-interval", time.Minute, "expiration sweep interval")
		walDir     = flag.String("wal-dir", "", "write-ahead log root for crash-path parity ('' disables the WAL)")
		httpAddr   = flag.String("http", "", "observability listen address serving /metrics, /debug/recovery and /debug/pprof ('' disables)")
		telemetry  = flag.Duration("telemetry-interval", 0, "self-telemetry period: snapshot this leaf's metrics into __system tables (0 disables)")
		profEvery  = flag.Duration("profile-interval", time.Minute, "continuous profiler steady cadence: capture a CPU window + heap delta into __system.profiles this often (0 disables the profiler)")
		profBudget = flag.Duration("profile-restart-budget", time.Second, "restart phase duration that triggers an anomaly profile capture")
		profMutex  = flag.Bool("profile-contention", false, "enable mutex/block profiling so /debug/pprof/mutex and /debug/pprof/block return real data")
		faultSpec  = flag.String("fault", "", "arm fault-injection points for chaos testing, e.g. 'shm.copy_in=corrupt;count=1,disk.read=delay:50ms'; shm.map is every segment open and shm.copy_in every shm-to-heap block clone, before ALIVE or (-instant-on) in the promoter (see internal/fault)")
	)
	flag.Parse()
	if *faultSpec != "" {
		if err := scuba.ArmFaults(*faultSpec); err != nil {
			log.Fatalf("scubad: -fault: %v", err)
		}
		log.Printf("fault injection armed: %s", scuba.DescribeFaults())
	}

	// One registry for everything this process observes (restart phases,
	// query latency, RPC counters) and one flight recorder in its own file
	// in the shm directory, which survives crashes and the leaf's own
	// segment sweep.
	reg := scuba.NewMetricsRegistry()
	reg.EnableRuntimeMetrics()
	reg.EnableProcessMetrics()
	if *profMutex {
		scuba.EnableContentionProfiling()
	}
	fr, err := scuba.OpenFlightRecorder(*id, scuba.FlightRecorderOptions{
		Dir: *shmDir, Namespace: *namespace,
	})
	if err != nil {
		log.Printf("flight recorder unavailable (continuing without): %v", err)
	}
	if prev := fr.Previous(); len(prev) > 0 {
		last := prev[len(prev)-1]
		log.Printf("previous run's newest event: %s %q %s (%d events)", last.Kind, last.Phase, last.Detail, len(prev))
	}
	ob := scuba.NewObserver(reg, fr)
	ob.Event(scuba.FlightNote, "process.start", fmt.Sprintf("scubad leaf %d", *id))

	cfg := scuba.LeafConfig{
		ID:                    *id,
		Shm:                   scuba.ShmOptions{Dir: *shmDir, Namespace: *namespace},
		DiskRoot:              *diskRoot,
		MemoryBudget:          *budget,
		Table:                 scuba.TableOptions{MaxAgeSeconds: *maxAge, MaxBytes: *maxBytes},
		DisableMemoryRecovery: *noShm,
		InstantOn:             *instantOn,
		DecodeCacheBytes:      *decCache,
		WALDir:                *walDir,
		Metrics:               reg,
		Obs:                   ob,
	}
	l, err := scuba.NewLeaf(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Self-telemetry (Scuba-on-Scuba): this leaf's own metrics and
	// flight-recorder events become rows in its __system tables, ingested
	// through the same AddRows path user data takes — and therefore
	// queryable through any aggregator and preserved across restarts by
	// the shared-memory path. A crashed predecessor's recovered recorder
	// events land in __system.recorder instead of only in the boot log.
	// The sink exists before Start so the restart ledger's spans (released to
	// the observer's span hooks once the leaf is ALIVE: __system.traces rows
	// with -telemetry-interval set, a profile capture for one over budget)
	// have a delivery path. With -telemetry-interval 0 but the profiler on,
	// the sink runs delivery-only (no metric snapshots, no span rows).
	var sink *scuba.TelemetrySink
	if *telemetry > 0 || *profEvery > 0 {
		interval := *telemetry
		if interval <= 0 {
			interval = -1
		}
		sink = scuba.NewTelemetrySink(scuba.TelemetrySinkConfig{
			Emit:            l.AddRows,
			Source:          *addr,
			Registry:        reg,
			MetricsInterval: interval,
			OnError:         func(err error) { log.Printf("telemetry: %v", err) },
		})
		defer sink.Close()
		if *telemetry > 0 {
			ob.OnSpans(sink.RecordSpans)
		}
	}
	if *profEvery > 0 {
		prof := scuba.NewProfiler(scuba.ProfilerConfig{
			Sink:     sink,
			Source:   *addr,
			Registry: reg,
			Interval: *profEvery,
		})
		defer prof.Close()
		// A restart span over budget profiles the restart that produced it.
		ob.SetBudget(*profBudget)
		ob.OnSpans(prof.OnSpans)
		log.Printf("continuous profiler on: %v cadence into %s", *profEvery, scuba.SystemProfilesTable)
	}

	start := time.Now()
	if err := l.Start(); err != nil {
		log.Fatal(err)
	}
	rec := l.Recovery()
	log.Printf("scubad leaf %d up in %v, %v CPU (recovery: %s, %d blocks, %.1f MB, %d pool workers)",
		*id, time.Since(start).Round(time.Millisecond), rec.CPU.Round(time.Millisecond), rec.Path, rec.Blocks,
		float64(rec.BytesRestored)/(1<<20), rec.Workers)
	logPerTable("restored", rec.PerTable)
	// This leaf's facts ride its registry, sampled by every snapshot: its
	// own sink is the one writer of them into __system.metrics (what
	// `scuba-cli health` reads), and /metrics shows the same numbers.
	reg.OnSnapshot("leaf", func() {
		st, rec := l.Stats(), l.Recovery()
		reg.Gauge("leaf.tables").Set(int64(st.Tables))
		reg.Gauge("leaf.blocks").Set(int64(st.Blocks))
		reg.Gauge("leaf.rows").Set(st.Rows)
		reg.Gauge("leaf.bytes").Set(st.Bytes)
		reg.Gauge("leaf.free_memory").Set(st.FreeMemory)
		reg.Gauge("leaf.quarantined").Set(int64(rec.Quarantined))
		reg.Gauge("leaf.recovery." + scuba.CanonicalMetricName(string(rec.Path))).Set(1)
	})

	// The observability listener comes up before the RPC one, so a client
	// that has an answer on the RPC port finds /debug/recovery answering too.
	if *httpAddr != "" {
		hs, err := scuba.StartObsHTTP(*httpAddr, scuba.ObsHandler(scuba.ObsHandlerConfig{
			Registry: reg,
			Recovery: func() any { return l.Recovery() },
		}))
		if err != nil {
			log.Fatal(err)
		}
		defer hs.Close()
		log.Printf("observability on http://%s (/metrics /debug/recovery /debug/pprof)", hs.Addr())
	}

	srv, err := scuba.NewServerOn(l, *addr, reg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on %s", srv.Addr())

	// A crashed predecessor's recovered recorder events land in
	// __system.recorder instead of only in the boot log.
	if *telemetry > 0 {
		if prev := fr.Previous(); len(prev) > 0 {
			sink.RecordRecorderEvents("previous", prev)
		}
		sink.RecordRecorderEvents("current", fr.Events())
	}

	// Background maintenance: expiration (§2). A block's image is written
	// when it seals (§4.1's asynchronous disk writes), with no loop.
	maint := l.StartMaintenance(scuba.MaintenanceConfig{
		ExpireInterval: *expireEach,
		OnError:        func(err error) { log.Printf("maintenance: %v", err) },
	})

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)

	select {
	case info := <-srv.ShutdownRequested():
		// A shutdown RPC already drained the leaf (to shm or disk).
		maint.Stop()
		logShutdown("shutdown RPC", info)
		srv.Close()
	case sig := <-sigs:
		// A signal is a *planned* stop: drain through shared memory so the
		// replacement process restarts fast (a crash never gets here, and
		// the valid bit stays unset for it).
		maint.Stop()
		log.Printf("signal %v: copying to shared memory before exit", sig)
		srv.Close()
		info, err := l.Shutdown()
		if err != nil {
			log.Fatalf("shutdown: %v", err)
		}
		logShutdown("signal shutdown", info)
	}
	ob.Event(scuba.FlightNote, "process.exit", "clean exit")
	fr.Close()
	fmt.Println("scubad: bye")
}

// logShutdown prints a ShutdownInfo symmetrically to the recovery log line
// at startup: totals, workers, and the per-table breakdown.
func logShutdown(how string, info scuba.ShutdownInfo) {
	log.Printf("%s: %d tables, %d blocks, %.1f MB in %v, %v CPU (shm=%v, %d pool workers); exiting",
		how, info.Tables, info.Blocks, float64(info.BytesCopied)/(1<<20),
		info.Duration.Round(time.Millisecond), info.CPU.Round(time.Millisecond), info.ToShm, info.Workers)
	logPerTable("copied", info.PerTable)
}

// logPerTable prints one half's per-table roll-up of the restart spans, then
// names the table whose steps took longest — the one that bounds the pool's
// wall time (§4.2).
func logPerTable(verb string, stats scuba.Trace) {
	for _, st := range stats {
		log.Printf("  %s %q: worker %d, %d blocks, %.1f MB in %v",
			verb, st.Table, st.Worker, st.Blocks, float64(st.Bytes)/(1<<20),
			st.Duration.Round(time.Millisecond))
	}
	if slow := stats.Slowest(); slow.Table != "" {
		log.Printf("  slowest %s table: %q (%v, %.1f MB on worker %d)",
			verb, slow.Table, slow.Duration.Round(time.Millisecond),
			float64(slow.Bytes)/(1<<20), slow.Worker)
	}
}
