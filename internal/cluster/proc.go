// ProcCluster runs a cluster of real scubad OS processes and rolls them
// over the way the production script does (§4.3, §4.5): drain a leaf with
// the shutdown-to-shm RPC, wait for the process to die (kill -9 after a
// timeout), start the replacement binary on the same identity, and confirm
// recovery through /debug/recovery — while a shard-routing aggregator flips
// the drained leaves out of the map so their shards serve from replicas.
//
// The in-process Cluster measures the restart path itself; ProcCluster adds
// everything a process boundary adds — exec, ports, kill signals, crashed
// subprocesses, and recovery state observable only over HTTP.
package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os/exec"
	"sort"
	"strconv"
	"sync"
	"time"

	"scuba/internal/aggregator"
	"scuba/internal/obs"
	"scuba/internal/shard"
	"scuba/internal/shm"
	"scuba/internal/tailer"
	"scuba/internal/wire"
)

// BuildScubad compiles the scubad daemon into dir and returns the binary
// path. It builds by package path, so it works from any directory inside
// the module.
func BuildScubad(dir string) (string, error) {
	return buildScubad(dir, false)
}

// BuildScubadRace compiles scubad with the race detector, so rollover
// drills exercise the daemon's own restart concurrency — the instant-on
// promoter against live scans, most of all — under instrumentation, not
// just the test harness.
func BuildScubadRace(dir string) (string, error) {
	return buildScubad(dir, true)
}

func buildScubad(dir string, race bool) (string, error) {
	bin := dir + "/scubad"
	args := []string{"build"}
	if race {
		args = append(args, "-race")
	}
	args = append(args, "-o", bin, "scuba/cmd/scubad")
	cmd := exec.Command("go", args...)
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("cluster: building scubad: %w\n%s", err, out)
	}
	return bin, nil
}

// ProcConfig describes a subprocess cluster.
type ProcConfig struct {
	// BinPath is the scubad binary (see BuildScubad).
	BinPath          string
	Machines         int
	LeavesPerMachine int
	// Replication is the owners-per-shard count (default 2); NumShards the
	// per-table shard count (0 = the shard map's default).
	Replication int
	NumShards   int
	// WorkDir holds shared memory segments and disk backups for all leaves.
	WorkDir   string
	Namespace string
	// Logs receives subprocess stdout/stderr (nil = discarded).
	Logs io.Writer
	// ReadyTimeout bounds how long a starting leaf may take to answer Ping
	// (default 30s; covers disk recovery of test-sized datasets).
	ReadyTimeout time.Duration
	// SyncInterval is each leaf's persist-pass interval — block images
	// written, WAL truncated behind them (default 200ms, fast so a crashed
	// leaf's store is near-current and its log tail short).
	SyncInterval time.Duration
	// DisableWAL turns off the per-leaf write-ahead log. By default every
	// leaf runs with -wal-dir under WorkDir, so a crashed (kill -9) leaf's
	// replacement recovers every acked row: block images + WAL replay.
	DisableWAL bool
	// ScrapeInterval, when positive, runs an aggregator-side cluster
	// scraper that pulls every leaf's metrics snapshot into
	// __system.leaf_metrics on this period.
	ScrapeInterval time.Duration
	// TelemetryInterval, when positive, turns on each scubad's
	// self-telemetry sink (its -telemetry-interval flag): metric snapshots
	// and flight-recorder events flow into that leaf's __system tables.
	TelemetryInterval time.Duration
	// ProfileInterval, when positive, sets each scubad's continuous
	// profiler cadence (its -profile-interval flag); steady and
	// anomaly-triggered captures land in __system.profiles. Zero leaves
	// the daemon's default (one minute, effectively idle at test scale).
	ProfileInterval time.Duration
	// InstantOn starts every leaf with -instant-on: a restarting leaf serves
	// queries zero-copy from its mmap'd shm backup as soon as validation
	// passes, and the copy-in runs as background promotion.
	InstantOn bool
	// PromoteWorkers is each leaf's -promote-workers (0 = NumCPU).
	PromoteWorkers int
}

// ProcLeaf is one leaf slot of a subprocess cluster: the OS process comes
// and goes across restarts, the identity (ID, machine, addresses, shm
// metadata location, disk directory) stays.
type ProcLeaf struct {
	ID       int
	Machine  int
	Addr     string // RPC address; also the leaf's name in the shard map
	HTTPAddr string // observability mux (/debug/recovery)

	mu          sync.Mutex
	cmd         *exec.Cmd
	exited      chan error
	client      *wire.Client
	quarantined bool
}

// Client returns the leaf's RPC client (persistent across restarts: stale
// pooled connections fail fast and redial the replacement process).
func (l *ProcLeaf) Client() *wire.Client { return l.client }

// Quarantined reports whether a rollover gave up on this leaf.
func (l *ProcLeaf) Quarantined() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.quarantined
}

// Kill sends SIGKILL to the leaf's current process (chaos drills: the
// process gets no chance to drain, so its shm backup stays invalid).
func (l *ProcLeaf) Kill() error {
	l.mu.Lock()
	cmd := l.cmd
	l.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return errors.New("cluster: leaf has no live process")
	}
	return cmd.Process.Kill()
}

// waitExit blocks until the current process exits (any exit status counts:
// the process only needs to be gone).
func (l *ProcLeaf) waitExit(timeout time.Duration) error {
	l.mu.Lock()
	exited := l.exited
	l.mu.Unlock()
	if exited == nil {
		return nil
	}
	select {
	case <-exited:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("cluster: leaf %d process still running after %v", l.ID, timeout)
	}
}

// ProcRecovery is a leaf's /debug/recovery answer as restart tooling reads
// it — the endpoint the production rollover script polls: the path the last
// restart took ("memory", "mixed", "wal", "disk", "shm-view"), the live
// promotion counts, and the restart ledger everything about time is read
// from.
type ProcRecovery struct {
	Path           string
	ServedFromShm  int64 `json:"served_from_shm"`
	PromotedBlocks int64 `json:"promoted_blocks"`
	// Restart is the leaf's restart trace: the previous process's shutdown
	// half and this process's start half, per phase, table and worker.
	Restart obs.RestartTrace `json:"-"`
}

// Recovery fetches the leaf's live /debug/recovery state: which path the
// last restart took, its span ledger, and — during an instant-on restart —
// how many blocks are still shm-resident.
func (l *ProcLeaf) Recovery() (ProcRecovery, error) {
	resp, err := http.Get("http://" + l.HTTPAddr + "/debug/recovery")
	if err != nil {
		return ProcRecovery{}, err
	}
	defer resp.Body.Close()
	var dump struct {
		Recovery ProcRecovery     `json:"recovery"`
		Restart  obs.RestartTrace `json:"restart"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		return ProcRecovery{}, err
	}
	dump.Recovery.Restart = dump.Restart
	return dump.Recovery, nil
}

// ProcCluster is a set of scubad subprocesses plus one shard-routing
// aggregator server over them.
type ProcCluster struct {
	cfg     ProcConfig
	leaves  []*ProcLeaf
	router  *shard.Router
	aggSrv  *wire.AggServer
	aggCli  *wire.Client
	sink    *obs.Sink
	scraper *wire.Scraper
}

// StartProcCluster builds the leaf processes and the aggregator. The caller
// must Close the cluster (which kills every subprocess).
func StartProcCluster(cfg ProcConfig) (*ProcCluster, error) {
	if cfg.BinPath == "" {
		return nil, errors.New("cluster: ProcConfig.BinPath is required (see BuildScubad)")
	}
	if cfg.Machines <= 0 || cfg.LeavesPerMachine <= 0 {
		return nil, errors.New("cluster: machines and leaves per machine must be positive")
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 2
	}
	if cfg.Namespace == "" {
		cfg.Namespace = "proc"
	}
	if cfg.ReadyTimeout <= 0 {
		cfg.ReadyTimeout = 30 * time.Second
	}
	if cfg.SyncInterval <= 0 {
		cfg.SyncInterval = 200 * time.Millisecond
	}
	pc := &ProcCluster{cfg: cfg}
	n := cfg.Machines * cfg.LeavesPerMachine
	ports, err := freeLoopbackAddrs(2 * n)
	if err != nil {
		return nil, err
	}
	for id := 0; id < n; id++ {
		l := &ProcLeaf{ID: id, Machine: id / cfg.LeavesPerMachine,
			Addr: ports[2*id], HTTPAddr: ports[2*id+1]}
		l.client = wire.Dial(l.Addr)
		if err := pc.startLeaf(l); err != nil {
			pc.Close()
			return nil, err
		}
		pc.leaves = append(pc.leaves, l)
	}
	for _, l := range pc.leaves {
		if err := pc.waitReady(l); err != nil {
			pc.Close()
			return nil, err
		}
	}

	addrs := make([]string, n)
	machines := make([]int, n)
	for i, l := range pc.leaves {
		addrs[i] = l.Addr
		machines[i] = l.Machine
	}
	srv, err := wire.NewAggServer(addrs, "127.0.0.1:0")
	if err != nil {
		pc.Close()
		return nil, err
	}
	pc.aggSrv = srv
	pc.router = wire.ShardRouting(srv.Aggregator(), addrs, machines, cfg.Replication, cfg.NumShards)
	pc.aggCli = wire.Dial(srv.Addr())
	if cfg.ScrapeInterval > 0 {
		// The scraper's sink delivers into the cluster itself: rows go to
		// the first live leaf, whence every aggregator query finds them.
		pc.sink = obs.NewSink(obs.SinkConfig{
			Emit:            pc.emitSystemRows,
			Source:          "aggd",
			MetricsInterval: -1, // the scraper drives delivery
		})
		targets := make([]wire.ScrapeTarget, len(pc.leaves))
		for i, l := range pc.leaves {
			targets[i] = wire.ScrapeTarget{Name: l.Addr, Client: l.client}
		}
		pc.scraper = wire.StartScraper(wire.ScraperConfig{
			Leaves:   targets,
			Sink:     pc.sink,
			Router:   pc.router,
			Interval: cfg.ScrapeInterval,
		})
	}
	return pc, nil
}

// Scraper exposes the cluster scraper (nil unless ScrapeInterval was set);
// tests use ScrapeOnce for a deterministic pull.
func (pc *ProcCluster) Scraper() *wire.Scraper { return pc.scraper }

// startLeaf execs a scubad process on the leaf's fixed identity.
func (pc *ProcCluster) startLeaf(l *ProcLeaf) error {
	args := []string{
		"-id", strconv.Itoa(l.ID),
		"-addr", l.Addr,
		"-http", l.HTTPAddr,
		"-shm-dir", pc.cfg.WorkDir,
		"-namespace", pc.cfg.Namespace,
		"-disk-root", pc.cfg.WorkDir + "/disk",
		"-sync-interval", pc.cfg.SyncInterval.String(),
	}
	if !pc.cfg.DisableWAL {
		args = append(args, "-wal-dir", pc.cfg.WorkDir+"/wal")
	}
	if pc.cfg.TelemetryInterval > 0 {
		args = append(args, "-telemetry-interval", pc.cfg.TelemetryInterval.String())
	}
	if pc.cfg.ProfileInterval > 0 {
		args = append(args, "-profile-interval", pc.cfg.ProfileInterval.String())
	}
	if pc.cfg.InstantOn {
		args = append(args, "-instant-on")
		if pc.cfg.PromoteWorkers > 0 {
			args = append(args, "-promote-workers", strconv.Itoa(pc.cfg.PromoteWorkers))
		}
	}
	cmd := exec.Command(pc.cfg.BinPath, args...)
	if pc.cfg.Logs != nil {
		cmd.Stdout = pc.cfg.Logs
		cmd.Stderr = pc.cfg.Logs
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("cluster: starting leaf %d: %w", l.ID, err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	l.mu.Lock()
	l.cmd = cmd
	l.exited = exited
	l.mu.Unlock()
	return nil
}

// waitReady polls Ping until the leaf's server answers. scubad listens only
// after recovery completes, so a successful Ping means the leaf is serving
// its recovered data.
func (pc *ProcCluster) waitReady(l *ProcLeaf) error {
	deadline := time.Now().Add(pc.cfg.ReadyTimeout)
	for time.Now().Before(deadline) {
		if err := l.client.Ping(); err == nil {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("cluster: leaf %d (%s) not ready after %v", l.ID, l.Addr, pc.cfg.ReadyTimeout)
}

// Leaves returns all leaf slots.
func (pc *ProcCluster) Leaves() []*ProcLeaf { return pc.leaves }

// Leaf returns one leaf slot by ID.
func (pc *ProcCluster) Leaf(id int) *ProcLeaf { return pc.leaves[id] }

// SetInstantOn flips whether leaves spawned from here on boot with
// -instant-on. Running processes keep their flags until their next restart;
// a rollover respawns every leaf, so flipping this between two rollovers
// compares the copy-in barrier and the instant-on path over identical data.
func (pc *ProcCluster) SetInstantOn(on bool) { pc.cfg.InstantOn = on }

// Router exposes the aggregator's shard router.
func (pc *ProcCluster) Router() *shard.Router { return pc.router }

// AggAddr is the aggregator server's address.
func (pc *ProcCluster) AggAddr() string { return pc.aggSrv.Addr() }

// AggClient is a client of the aggregator: queries, plus the SetLeafStatus
// and ShardMap admin RPCs the rollover drives.
func (pc *ProcCluster) AggClient() *wire.Client { return pc.aggCli }

// Aggregator exposes the in-process aggregator behind the cluster's RPC
// server, so tests can attach a tracer (and through it the continuous
// profiler's slow-query hook) to the real query path.
func (pc *ProcCluster) Aggregator() *aggregator.Aggregator { return pc.aggSrv.Aggregator() }

// FlushAll raises the durability barrier on every live leaf: seal and sync
// everything to disk, so even a kill -9 from here on loses nothing.
func (pc *ProcCluster) FlushAll() error {
	for _, l := range pc.leaves {
		if l.Quarantined() {
			continue
		}
		if err := l.client.Flush(); err != nil {
			return fmt.Errorf("cluster: flushing leaf %d: %w", l.ID, err)
		}
	}
	return nil
}

// NewShardedPlacer builds a dual-writing placer over the leaf RPC clients,
// sharing the aggregator's router so reads and writes agree on ownership.
func (pc *ProcCluster) NewShardedPlacer() *tailer.ShardedPlacer {
	targets := make([]tailer.Target, len(pc.leaves))
	for i, l := range pc.leaves {
		targets[i] = l.client
	}
	return tailer.NewShardedPlacer(targets, pc.router)
}

// Close kills every subprocess and releases sockets. Safe on a
// partially-started cluster.
func (pc *ProcCluster) Close() {
	pc.scraper.Stop()
	pc.sink.Close()
	for _, l := range pc.leaves {
		l.Kill()                    //nolint:errcheck
		l.waitExit(5 * time.Second) //nolint:errcheck
		l.client.Close()            //nolint:errcheck
	}
	if pc.aggCli != nil {
		pc.aggCli.Close() //nolint:errcheck
	}
	if pc.aggSrv != nil {
		pc.aggSrv.Close() //nolint:errcheck
	}
}

// ProcRolloverConfig drives a subprocess rollover. The zero value restarts
// 2% of leaves per batch through shared memory.
type ProcRolloverConfig struct {
	// BatchFraction is the share of leaves restarted at once (default 0.02).
	BatchFraction float64
	// MaxPerMachine bounds concurrent restarts on one machine (default 1,
	// §4.2: each restarting leaf gets its machine's full bandwidth).
	MaxPerMachine int
	// UseShm selects the fast path; false is the disk-recovery baseline.
	UseShm bool
	// KillTimeout bounds each leaf's drain; a leaf still alive after it is
	// SIGKILLed and its shm backup discarded, so the replacement recovers
	// from disk (§4.3; default 3 minutes, the paper's script timeout).
	KillTimeout time.Duration
	// MaxDiskFallback aborts when more than this fraction of restarted
	// leaves disk-recover (0 disables) — the §4.5 canary guard.
	MaxDiskFallback float64
	// Tables lists tables whose shard coverage batches must preserve: the
	// picker never drains every owner of any of their shards at once.
	Tables []string
	// OnBatch, if set, is called with the batch's leaf addresses after they
	// are flipped to DRAINING and before any shutdown RPC — the hook chaos
	// drills use to kill a leaf mid-batch.
	OnBatch func(batch int, draining []string)
	// MaxAvailabilityGap, when positive, aborts the rollover if any restarted
	// leaf takes longer than this from replacement exec to first successful
	// Ping (scubad only listens once recovery completes, so a Ping answer
	// means queries are being served). This is the instant-on gate: a leaf
	// that blocks availability on its full copy-in blows the budget.
	MaxAvailabilityGap time.Duration
}

// ProcRestart records one subprocess restart.
type ProcRestart struct {
	Leaf int
	Addr string
	// Killed: the drain missed KillTimeout and the process was SIGKILLed.
	Killed bool
	// Crashed: the shutdown RPC failed because the process was already dead
	// (or died mid-drain) — the replacement recovers from disk.
	Crashed bool
	// RecoveryPath is the replacement's /debug/recovery answer.
	RecoveryPath string
	// Gap is the availability gap: replacement exec to first successful Ping.
	Gap time.Duration
	// Err is set when the slot was quarantined (replacement never ready).
	Err      string
	Duration time.Duration
}

// ProcRolloverReport summarizes a subprocess rollover.
type ProcRolloverReport struct {
	Duration time.Duration
	Batches  int
	Restarts []ProcRestart
	// Recovery paths taken by successful restarts. WALRecoveries counts
	// replacements that came back via snapshot images + WAL replay (crashed
	// or killed leaves whose log survived).
	MemoryRecoveries int
	MixedRecoveries  int
	DiskRecoveries   int
	WALRecoveries    int
	// ShmViewRecoveries counts replacements that came up instant-on, serving
	// zero-copy from the shm backup while promotion ran in the background.
	ShmViewRecoveries int
	// MaxGap is the largest availability gap any successful restart paid.
	MaxGap time.Duration
	// Quarantined leaves were left DOWN: their replacement process never
	// became ready, so their shards keep serving from replicas.
	Quarantined []int
	// Aborted is set when the MaxDiskFallback guard stopped the rollover.
	Aborted bool
}

// ProcRollover upgrades every live leaf, BatchFraction at a time: flip the
// batch to DRAINING in the shard map (queries move to replicas), drain each
// leaf to shared memory over RPC, restart its process, confirm recovery,
// and flip it back to ACTIVE. A leaf whose replacement never answers is
// quarantined DOWN rather than hanging the rollover.
func (pc *ProcCluster) ProcRollover(cfg ProcRolloverConfig) (*ProcRolloverReport, error) {
	if cfg.BatchFraction <= 0 {
		cfg.BatchFraction = 0.02
	}
	if cfg.MaxPerMachine <= 0 {
		cfg.MaxPerMachine = 1
	}
	if cfg.KillTimeout <= 0 {
		cfg.KillTimeout = 3 * time.Minute
	}
	var pending []*ProcLeaf
	for _, l := range pc.leaves {
		if !l.Quarantined() {
			pending = append(pending, l)
		}
	}
	batchSize := int(math.Ceil(cfg.BatchFraction * float64(len(pending))))
	if batchSize < 1 {
		batchSize = 1
	}
	var veto func(chosen []*ProcLeaf, l *ProcLeaf) bool
	if len(cfg.Tables) > 0 {
		veto = shardConflictVeto(pc.router, cfg.Tables, func(l *ProcLeaf) string { return l.Addr })
	}

	begin := time.Now()
	report := &ProcRolloverReport{}
	restarted := 0
	for batchNum := 0; len(pending) > 0; batchNum++ {
		var batch []*ProcLeaf
		batch, pending = pickBatch(pending, batchSize, cfg.MaxPerMachine,
			func(l *ProcLeaf) int { return l.Machine }, veto)

		// Drain the whole batch in the shard map first, through the same
		// admin RPC an external orchestrator would use, so no new query
		// routes to a leaf about to exit.
		draining := make([]string, len(batch))
		for i, l := range batch {
			draining[i] = l.Addr
			if err := pc.aggCli.SetLeafStatus(l.Addr, shard.StatusDraining); err != nil {
				return report, fmt.Errorf("cluster: draining %s: %w", l.Addr, err)
			}
		}
		if cfg.OnBatch != nil {
			cfg.OnBatch(batchNum, draining)
		}

		reps := make([]ProcRestart, len(batch))
		var wg sync.WaitGroup
		for i, l := range batch {
			wg.Add(1)
			go func(i int, l *ProcLeaf) {
				defer wg.Done()
				reps[i] = pc.restartLeaf(l, cfg)
			}(i, l)
		}
		wg.Wait()

		for _, rep := range reps {
			report.Restarts = append(report.Restarts, rep)
			if rep.Err != "" {
				report.Quarantined = append(report.Quarantined, rep.Leaf)
				continue
			}
			restarted++
			switch rep.RecoveryPath {
			case "memory":
				report.MemoryRecoveries++
			case "mixed":
				report.MixedRecoveries++
			case "disk":
				report.DiskRecoveries++
			case "wal":
				report.WALRecoveries++
			case "shm-view":
				report.ShmViewRecoveries++
			}
			if rep.Gap > report.MaxGap {
				report.MaxGap = rep.Gap
			}
			if cfg.MaxAvailabilityGap > 0 && rep.Gap > cfg.MaxAvailabilityGap {
				report.Aborted = true
				report.Duration = time.Since(begin)
				sortRestarts(report.Restarts)
				return report, fmt.Errorf("%w: leaf %d availability gap %v exceeds budget %v",
					ErrRolloverAborted, rep.Leaf, rep.Gap, cfg.MaxAvailabilityGap)
			}
		}
		report.Batches++

		// The canary guard (§4.5): a wave of disk fallbacks means the new
		// binary cannot read the old shm segments — stop before the rest of
		// the cluster pays disk-recovery time.
		if cfg.MaxDiskFallback > 0 && restarted > 0 {
			frac := float64(report.DiskRecoveries) / float64(restarted)
			if frac > cfg.MaxDiskFallback {
				report.Aborted = true
				report.Duration = time.Since(begin)
				sortRestarts(report.Restarts)
				return report, fmt.Errorf("%w: %d of %d restarted leaves (%.0f%%) fell back to disk recovery, limit %.0f%%: stopping after batch %d with %d leaves pending",
					ErrRolloverAborted, report.DiskRecoveries, restarted, frac*100,
					cfg.MaxDiskFallback*100, batchNum, len(pending))
			}
		}
	}
	report.Duration = time.Since(begin)
	sortRestarts(report.Restarts)
	return report, nil
}

func sortRestarts(rs []ProcRestart) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].Leaf < rs[j].Leaf })
}

// restartLeaf is the per-leaf step the production script runs: shutdown RPC
// (drain to shm), wait for the process to die (SIGKILL past the timeout),
// start the replacement on the same identity, wait for it to serve, read
// its recovery path, and put it back in the shard map. A failure leaves the
// slot quarantined DOWN.
func (pc *ProcCluster) restartLeaf(l *ProcLeaf, cfg ProcRolloverConfig) ProcRestart {
	rep := ProcRestart{Leaf: l.ID, Addr: l.Addr}
	start := time.Now()

	drained := make(chan error, 1)
	go func() {
		_, err := l.client.Shutdown(cfg.UseShm)
		drained <- err
	}()
	select {
	case err := <-drained:
		if err != nil {
			// The process crashed before (or during) the drain: make sure
			// it is gone and restart from whatever the disk backup holds.
			rep.Crashed = true
			l.Kill() //nolint:errcheck
		}
	case <-time.After(cfg.KillTimeout):
		rep.Killed = true
		l.Kill() //nolint:errcheck
	}
	if err := l.waitExit(10 * time.Second); err != nil {
		l.Kill()                     //nolint:errcheck
		l.waitExit(10 * time.Second) //nolint:errcheck
	}
	if rep.Killed && cfg.UseShm {
		// A killed leaf cannot be trusted to have completed its backup;
		// discard it so the replacement restarts from disk (§4.3).
		m := shm.NewManager(l.ID, shm.Options{Dir: pc.cfg.WorkDir, Namespace: pc.cfg.Namespace})
		if err := m.Invalidate(); err != nil {
			rep.Err = err.Error()
		}
	}

	quarantine := func(err error) ProcRestart {
		rep.Err = err.Error()
		rep.Duration = time.Since(start)
		l.mu.Lock()
		l.quarantined = true
		l.mu.Unlock()
		pc.aggCli.SetLeafStatus(l.Addr, shard.StatusDown) //nolint:errcheck
		return rep
	}
	bootBegin := time.Now()
	if err := pc.startLeaf(l); err != nil {
		return quarantine(err)
	}
	if err := pc.waitReady(l); err != nil {
		return quarantine(err)
	}
	rep.Gap = time.Since(bootBegin)
	if rec, err := l.Recovery(); err == nil {
		rep.RecoveryPath = rec.Path
	}
	if err := pc.aggCli.SetLeafStatus(l.Addr, shard.StatusActive); err != nil {
		return quarantine(err)
	}
	rep.Duration = time.Since(start)
	return rep
}

// freeLoopbackAddrs reserves n distinct loopback ports by holding all n
// listeners open before releasing any — releasing one at a time lets the
// kernel hand the same port out twice. The ports stay the leaves'
// identities across restarts, like a production leaf's fixed service port.
func freeLoopbackAddrs(n int) ([]string, error) {
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}
