// Package cluster wires leaf servers into a Scuba cluster: machines running
// eight leaf servers each (§2), tailer placement targets, an aggregator
// fan-out, and the system-wide rollover procedure (§4.5) with its dashboard
// (Figure 8).
//
// Running eight leaves per machine matters for recovery: leaves restart one
// per machine at a time, so N times as many machines participate in a
// rollover and contribute their disk and memory bandwidth, while only 2% of
// data is offline (§2, §6).
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"scuba/internal/aggregator"
	"scuba/internal/leaf"
	"scuba/internal/obs"
	"scuba/internal/query"
	"scuba/internal/rowblock"
	"scuba/internal/shard"
	"scuba/internal/shm"
	"scuba/internal/table"
	"scuba/internal/tailer"
)

// Config describes a cluster.
type Config struct {
	Machines         int
	LeavesPerMachine int // the paper runs 8
	// ShmDir and DiskRoot are shared across all leaves (per-leaf files are
	// namespaced by leaf ID).
	ShmDir    string
	DiskRoot  string
	Namespace string
	Table     table.Options
	// MemoryBudgetPerLeaf feeds tailer placement.
	MemoryBudgetPerLeaf int64
	// Clock injects virtual time into leaves (nil = wall clock).
	Clock func() int64
	// Replication, when > 0, turns on shard mode: the cluster owns a shard
	// map (R owners per shard, replicas on distinct machines), NewAggregator
	// routes by shard, NewShardedPlacer dual-writes, and Rollover flips
	// draining leaves in the router so their shards serve from replicas.
	Replication int
	// NumShards is the per-table shard count under Replication (0 = 2x the
	// leaf count).
	NumShards int
	// InstantOn makes every leaf restart serve zero-copy from its mmap'd shm
	// backup while background promotion copies blocks heap-side.
	InstantOn bool
}

// Node is one leaf slot: the process comes and goes across restarts, the
// slot (machine, position, shm location, disk directory) stays.
type Node struct {
	Machine  int
	Slot     int
	GlobalID int

	cfg    Config
	router *shard.Router // the cluster's, nil outside shard mode

	mu      sync.Mutex
	leaf    *leaf.Leaf
	version int
}

// Cluster is a set of nodes.
type Cluster struct {
	cfg    Config
	nodes  []*Node
	router *shard.Router // non-nil in shard mode (Config.Replication > 0)
}

// New creates and starts a cluster at software version 1.
func New(cfg Config) (*Cluster, error) {
	if cfg.Machines <= 0 || cfg.LeavesPerMachine <= 0 {
		return nil, errors.New("cluster: machines and leaves per machine must be positive")
	}
	c := &Cluster{cfg: cfg}
	for m := 0; m < cfg.Machines; m++ {
		for s := 0; s < cfg.LeavesPerMachine; s++ {
			n := &Node{
				Machine:  m,
				Slot:     s,
				GlobalID: m*cfg.LeavesPerMachine + s,
				cfg:      cfg,
				version:  1,
			}
			if err := n.start(); err != nil {
				return nil, err
			}
			c.nodes = append(c.nodes, n)
		}
	}
	if cfg.Replication > 0 {
		leaves := make([]shard.Leaf, len(c.nodes))
		for i, n := range c.nodes {
			leaves[i] = shard.Leaf{Name: n.Name(), Machine: n.Machine}
		}
		c.router = shard.NewRouter(shard.NewMap(leaves, cfg.Replication, cfg.NumShards))
		for _, n := range c.nodes {
			n.router = c.router
		}
	}
	return c, nil
}

// Name is the node's routing identity in the shard map.
func (n *Node) Name() string { return fmt.Sprintf("node%d", n.GlobalID) }

func (n *Node) leafConfig() leaf.Config {
	return leaf.Config{
		ID:           n.GlobalID,
		Shm:          shm.Options{Dir: n.cfg.ShmDir, Namespace: n.cfg.Namespace},
		DiskRoot:     n.cfg.DiskRoot,
		Table:        n.cfg.Table,
		MemoryBudget: n.cfg.MemoryBudgetPerLeaf,
		Clock:        n.cfg.Clock,
		InstantOn:    n.cfg.InstantOn,
	}
}

func (n *Node) start() error {
	l, err := leaf.New(n.leafConfig())
	if err != nil {
		return err
	}
	if err := l.Start(); err != nil {
		return err
	}
	n.mu.Lock()
	n.leaf = l
	n.mu.Unlock()
	return nil
}

// current returns the live leaf process (nil between shutdown and restart).
func (n *Node) current() *leaf.Leaf {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leaf
}

// Version returns the node's software version.
func (n *Node) Version() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.version
}

// Stats implements tailer.Target.
func (n *Node) Stats() (leaf.Stats, error) {
	l := n.current()
	if l == nil {
		return leaf.Stats{ID: n.GlobalID, State: leaf.StateExit}, nil
	}
	return l.Stats(), nil
}

// AddRows implements tailer.Target.
func (n *Node) AddRows(tableName string, rows []rowblock.Row) error {
	l := n.current()
	if l == nil {
		return leaf.ErrNotAlive
	}
	return l.AddRows(tableName, rows)
}

// QueryShards implements aggregator.LeafTarget by forwarding to the node's
// live leaf.
func (n *Node) QueryShards(q *query.Query, shards []int, tc obs.TraceContext) (*query.Result, *obs.ExecStats, error) {
	l := n.current()
	if l == nil {
		return nil, nil, leaf.ErrNotAlive
	}
	return l.QueryShards(q, shards, tc)
}

// ident, setStatus and restart make a Node a member of the rollover driver's
// fleet: its status goes straight to the cluster's router, and its process is
// a goroutine-owned leaf.Leaf.
func (n *Node) ident() (id, machine int, name string) { return n.GlobalID, n.Machine, n.Name() }

func (n *Node) setStatus(st shard.Status) error {
	if n.router == nil {
		return nil
	}
	return n.router.SetStatusByName(n.Name(), st)
}

func (n *Node) restart(cfg RolloverConfig, rs *Restart) error {
	l := n.current()
	if l == nil {
		return errors.New("cluster: node has no live process")
	}
	begin := time.Now()
	var err error
	if cfg.UseShm {
		_, err = l.Shutdown()
	} else {
		_, err = l.ShutdownToDisk()
	}
	// A goroutine cannot be SIGKILLed: a shutdown that outlives KillTimeout
	// is reaped when it returns and counts as killed.
	rs.Killed = time.Since(begin) > cfg.KillTimeout
	if err != nil {
		return err
	}
	n.mu.Lock()
	n.leaf = nil
	n.mu.Unlock()

	if rs.Killed && cfg.UseShm {
		// A killed leaf cannot be trusted to have completed its backup;
		// discard it so the new process restarts from disk (§4.3).
		if err := shm.NewManager(n.GlobalID, n.leafConfig().Shm).Invalidate(); err != nil {
			return err
		}
	}

	boot := time.Now()
	if err := n.start(); err != nil {
		return err
	}
	rs.Gap = time.Since(boot)
	n.mu.Lock()
	if cfg.TargetVersion > 0 {
		n.version = cfg.TargetVersion
	}
	l = n.leaf
	n.mu.Unlock()
	rec := l.Recovery()
	rs.Recovery, rs.RowsDropped = rec.Path, rowsDropped(rec.PerTablePath)
	return nil
}

// Restart performs shutdown + replacement start on this node — the per-leaf
// step of the system-wide rollover (§4.5), by the rollover's own code: in
// shard mode the node is DRAINING while its process is gone and DOWN if the
// replacement does not come up (Restart.Err).
func (n *Node) Restart(cfg RolloverConfig) Restart { return restartOne(n, cfg) }

// Rollover upgrades every node, cfg.BatchFraction at a time.
func (c *Cluster) Rollover(cfg RolloverConfig) (*RolloverReport, error) {
	if cfg.TargetVersion == 0 {
		cfg.TargetVersion = c.maxVersion() + 1
	}
	fleet := make([]member, len(c.nodes))
	for i, n := range c.nodes {
		fleet[i] = n
	}
	return rollover(fleet, c.router, cfg)
}

func (c *Cluster) maxVersion() int {
	v := 0
	for _, n := range c.nodes {
		if nv := n.Version(); nv > v {
			v = nv
		}
	}
	return v
}

// Nodes returns all nodes.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Node returns one node by global ID.
func (c *Cluster) Node(id int) *Node { return c.nodes[id] }

// Size returns the number of leaves.
func (c *Cluster) Size() int { return len(c.nodes) }

// Targets adapts all nodes for a tailer placer.
func (c *Cluster) Targets() []tailer.Target {
	out := make([]tailer.Target, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n
	}
	return out
}

// NewAggregator builds a query aggregator over all nodes. In shard mode it
// routes by the cluster's shard map and reports per-shard coverage.
func (c *Cluster) NewAggregator() *aggregator.Aggregator {
	targets := make([]aggregator.LeafTarget, len(c.nodes))
	labels := make([]string, len(c.nodes))
	for i, n := range c.nodes {
		targets[i] = n
		labels[i] = n.Name()
	}
	a := aggregator.New(targets)
	a.Labels = labels
	a.Router = c.router
	return a
}

// Router exposes the shard router (nil outside shard mode) for status flips
// and write planning.
func (c *Cluster) Router() *shard.Router { return c.router }

// NewShardedPlacer builds a dual-writing placer over all nodes (shard mode
// only).
func (c *Cluster) NewShardedPlacer() *tailer.ShardedPlacer {
	if c.router == nil {
		return nil
	}
	return tailer.NewShardedPlacer(c.Targets(), c.router)
}
