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
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"sync"
	"time"

	"scuba/internal/aggregator"
	"scuba/internal/leaf"
	"scuba/internal/shard"
	"scuba/internal/shm"
	"scuba/internal/tailer"
	"scuba/internal/wire"
)

// BuildScubad compiles the scubad daemon into dir and returns the binary
// path. It builds by package path, so it works from any directory inside
// the module.
func BuildScubad(dir string) (string, error) {
	return buildCmd("", dir, "scubad", false)
}

// BuildScubadRace compiles scubad with the race detector, so rollover
// drills exercise the daemon's own restart concurrency — the instant-on
// promoter against live scans, most of all — under instrumentation, not
// just the test harness.
func BuildScubadRace(dir string) (string, error) {
	return buildCmd("", dir, "scubad", true)
}

// buildCmd compiles the command cmd/name of the module in src ("" = the
// one the process runs in) into dir.
func buildCmd(src, dir, name string, race bool) (string, error) {
	bin := dir + "/" + name
	args := []string{"build"}
	if race {
		args = append(args, "-race")
	}
	args = append(args, "-o", bin, "scuba/cmd/"+name)
	cmd := exec.Command("go", args...)
	cmd.Dir = src
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("cluster: building %s: %w\n%s", name, err, out)
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
	// DisableWAL turns off the per-leaf write-ahead log. By default every
	// leaf runs with -wal-dir under WorkDir, so a crashed (kill -9) leaf's
	// replacement recovers every acked row: block images + WAL replay.
	DisableWAL bool
	// TelemetryInterval, when positive, turns on each scubad's
	// self-telemetry sink (its -telemetry-interval flag): metric snapshots —
	// the leaf's facts among them — and flight-recorder events flow into that
	// leaf's __system tables.
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
}

// ProcLeaf is one leaf slot of a subprocess cluster: the OS process comes
// and goes across restarts, the identity (ID, machine, addresses, shm
// metadata location, disk directory) stays.
type ProcLeaf struct {
	ID       int
	Machine  int
	Addr     string // RPC address; also the leaf's name in the shard map
	HTTPAddr string // observability mux (/debug/recovery)

	pc *ProcCluster

	mu     sync.Mutex
	cmd    *exec.Cmd
	exited chan struct{} // closed when cmd has exited
	client *wire.Client
}

// Client returns the leaf's RPC client (persistent across restarts: stale
// pooled connections fail fast and redial the replacement process).
func (l *ProcLeaf) Client() *wire.Client { return l.client }

// Quarantined reports whether a rollover gave up on this leaf: it is DOWN in
// the shard map.
func (l *ProcLeaf) Quarantined() bool {
	return l.pc.router.Status()[l.ID] == shard.StatusDown
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

// waitExit blocks until the current process has exited.
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
// restart took ("memory", "mixed", "wal", "disk", "shm-view") and the live
// promotion counts. The restart's spans are rows of the leaf's
// __system.traces.
type ProcRecovery struct {
	Path           string
	ServedFromShm  int64 `json:"served_from_shm"`
	PromotedBlocks int64 `json:"promoted_blocks"`
	// RowsDropped sums what the tables report lost
	// (leaf.TableRecovery.RowsDropped).
	RowsDropped int64 `json:"-"`
}

// Recovery fetches the leaf's live /debug/recovery state: which path the
// last restart took and — during an instant-on restart — how many blocks are
// still shm-resident.
func (l *ProcLeaf) Recovery() (ProcRecovery, error) {
	resp, err := http.Get("http://" + l.HTTPAddr + "/debug/recovery")
	if err != nil {
		return ProcRecovery{}, err
	}
	defer resp.Body.Close()
	var body struct {
		Recovery struct {
			ProcRecovery
			PerTablePath []leaf.TableRecovery
		} `json:"recovery"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return ProcRecovery{}, err
	}
	rec := body.Recovery.ProcRecovery
	rec.RowsDropped = rowsDropped(body.Recovery.PerTablePath)
	return rec, nil
}

// ProcCluster is a set of scubad subprocesses plus one shard-routing
// aggregator server over them.
type ProcCluster struct {
	cfg    ProcConfig
	leaves []*ProcLeaf
	router *shard.Router
	aggSrv *wire.AggServer
	aggCli *wire.Client
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
	pc := &ProcCluster{cfg: cfg}
	n := cfg.Machines * cfg.LeavesPerMachine
	ports, err := freeLoopbackAddrs(2 * n)
	if err != nil {
		return nil, err
	}
	for id := 0; id < n; id++ {
		l := &ProcLeaf{ID: id, Machine: id / cfg.LeavesPerMachine,
			Addr: ports[2*id], HTTPAddr: ports[2*id+1], pc: pc}
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
	return pc, nil
}

// startLeaf execs a scubad process on the leaf's fixed identity.
func (pc *ProcCluster) startLeaf(l *ProcLeaf) error {
	args := []string{
		"-id", strconv.Itoa(l.ID),
		"-addr", l.Addr,
		"-http", l.HTTPAddr,
		"-shm-dir", pc.cfg.WorkDir,
		"-namespace", pc.cfg.Namespace,
		"-disk-root", pc.cfg.WorkDir + "/disk",
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
	}
	cmd := exec.Command(pc.cfg.BinPath, args...)
	if pc.cfg.Logs != nil {
		cmd.Stdout = pc.cfg.Logs
		cmd.Stderr = pc.cfg.Logs
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("cluster: starting leaf %d: %w", l.ID, err)
	}
	exited := make(chan struct{})
	go func() {
		cmd.Wait() //nolint:errcheck // any exit status counts: the process only needs to be gone
		close(exited)
	}()
	l.mu.Lock()
	l.cmd = cmd
	l.exited = exited
	l.mu.Unlock()
	return nil
}

// readyTimeout bounds how long a starting leaf may take to answer Ping; it
// covers disk recovery of test-sized datasets.
const readyTimeout = 30 * time.Second

// waitReady polls Ping until the leaf's server answers, and its
// /debug/recovery when it has one. scubad listens only after recovery
// completes, so a successful Ping means the leaf is serving its recovered
// data; it starts its HTTP endpoint a moment later, and a restart reads how
// the leaf recovered from there right after.
func (pc *ProcCluster) waitReady(l *ProcLeaf) error {
	deadline := time.Now().Add(readyTimeout)
	for time.Now().Before(deadline) {
		if err := l.client.Ping(); err == nil {
			if _, err := l.Recovery(); err == nil || l.HTTPAddr == "" {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("cluster: leaf %d (%s) not ready after %v", l.ID, l.Addr, readyTimeout)
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

// Rollover upgrades every leaf, cfg.BatchFraction at a time, through public
// admin surfaces only: the aggregator's SetLeafStatus RPC, each leaf's
// shutdown RPC and /debug/recovery.
func (pc *ProcCluster) Rollover(cfg RolloverConfig) (*RolloverReport, error) {
	fleet := make([]member, len(pc.leaves))
	for i, l := range pc.leaves {
		fleet[i] = l
	}
	return rollover(fleet, pc.router, cfg)
}

// ident, setStatus and restart make a ProcLeaf a member of the rollover
// driver's fleet.
func (l *ProcLeaf) ident() (id, machine int, name string) { return l.ID, l.Machine, l.Addr }

// setStatus goes through the same admin RPC an external orchestrator would
// use.
func (l *ProcLeaf) setStatus(st shard.Status) error {
	return l.pc.aggCli.SetLeafStatus(l.Addr, st)
}

// restart is the per-leaf step the production script runs: shutdown RPC
// (drain to shm), wait for the process to die (SIGKILL past the timeout),
// start the replacement on the same identity, wait for it to serve, and read
// how it recovered.
func (l *ProcLeaf) restart(cfg RolloverConfig, rs *Restart) error {
	drained := make(chan error, 1)
	go func() {
		_, err := l.client.Shutdown(cfg.UseShm)
		drained <- err
	}()
	kill := time.NewTimer(cfg.KillTimeout)
	defer kill.Stop()
	select {
	case err := <-drained:
		// A failed drain means the process crashed before or during it: the
		// replacement restarts from whatever the disk backup holds.
		rs.Crashed = err != nil
	case <-kill.C:
		rs.Killed = true
	}
	// A leaf that drained exits on its own; any other is killed.
	if rs.Crashed || rs.Killed || l.waitExit(10*time.Second) != nil {
		l.Kill() //nolint:errcheck // it may have exited on its own since
	}
	l.waitExit(10 * time.Second) //nolint:errcheck
	if rs.Killed && cfg.UseShm {
		// A killed leaf cannot be trusted to have completed its backup;
		// discard it so the replacement restarts from disk (§4.3) — and
		// start none over a backup that cannot be discarded.
		opts := shm.Options{Dir: l.pc.cfg.WorkDir, Namespace: l.pc.cfg.Namespace}
		if err := shm.NewManager(l.ID, opts).Invalidate(); err != nil {
			return err
		}
	}

	boot := time.Now()
	if err := l.pc.startLeaf(l); err != nil {
		return err
	}
	if err := l.pc.waitReady(l); err != nil {
		return err
	}
	rs.Gap = time.Since(boot)
	// A replacement that cannot say how it recovered is one the guards cannot
	// judge: quarantined like one that never served.
	rec, err := l.Recovery()
	rs.Recovery, rs.RowsDropped = leaf.RecoveryPath(rec.Path), rec.RowsDropped
	return err
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
