package cluster

import (
	"errors"
	"fmt"
	"time"
)

// Canary deployments are the paper's §6 observation made operational:
// "this fast rollover path allows us to deploy experimental software builds
// on a handful of machines, which we could not do if it took longer. We can
// add more logging, test bug fixes, and try new software designs — and then
// revert the changes if we wish."
//
// A canary restarts a chosen subset of leaves onto an experimental version
// through shared memory (seconds of unavailability per leaf), and Revert
// restarts the same leaves back — again through shared memory, so trying an
// experiment costs two fast restarts instead of two disk recoveries.

// CanaryConfig selects the experimental deployment.
type CanaryConfig struct {
	// Nodes are the global IDs of the leaves to move to the experimental
	// build ("a handful of machines").
	Nodes []int
	// Version identifies the experimental build.
	Version int
	// KillTimeout guards each restart like a normal rollover.
	KillTimeout time.Duration
}

// Canary tracks an in-flight experimental deployment.
type Canary struct {
	cluster     *Cluster
	cfg         CanaryConfig
	baseVersion int
	Deploy      []Restart
	reverted    bool
}

// ErrCanaryNodes rejects empty or out-of-range node selections.
var ErrCanaryNodes = errors.New("cluster: invalid canary node selection")

// StartCanary restarts the selected nodes onto the experimental version.
func (c *Cluster) StartCanary(cfg CanaryConfig) (*Canary, error) {
	if len(cfg.Nodes) == 0 {
		return nil, ErrCanaryNodes
	}
	for _, id := range cfg.Nodes {
		if id < 0 || id >= len(c.nodes) {
			return nil, fmt.Errorf("%w: node %d of %d", ErrCanaryNodes, id, len(c.nodes))
		}
	}
	if cfg.Version == 0 {
		cfg.Version = c.maxVersion() + 1
	}
	can := &Canary{cluster: c, cfg: cfg, baseVersion: c.nodes[cfg.Nodes[0]].Version()}
	var err error
	if can.Deploy, err = can.restartAll(cfg.Version); err != nil {
		return nil, fmt.Errorf("cluster: canary deploy: %w", err)
	}
	return can, nil
}

// restartAll moves the canaried leaves to version, one at a time, through
// shared memory.
func (can *Canary) restartAll(version int) ([]Restart, error) {
	var restarts []Restart
	for _, id := range can.cfg.Nodes {
		rs := can.cluster.nodes[id].Restart(RolloverConfig{
			UseShm:        true,
			TargetVersion: version,
			KillTimeout:   can.cfg.KillTimeout,
		})
		restarts = append(restarts, rs)
		if rs.Err != "" {
			return restarts, fmt.Errorf("node %d: %s", id, rs.Err)
		}
	}
	return restarts, nil
}

// Revert restarts the canaried leaves back onto the base version, again
// through shared memory: no data is lost in either direction.
func (can *Canary) Revert() ([]Restart, error) {
	if can.reverted {
		return nil, errors.New("cluster: canary already reverted")
	}
	restarts, err := can.restartAll(can.baseVersion)
	if err != nil {
		return restarts, fmt.Errorf("cluster: canary revert: %w", err)
	}
	can.reverted = true
	return restarts, nil
}
