package shard

import (
	"fmt"
	"sync"
)

// Router is the live, concurrency-safe view of a shard map: the immutable
// Map plus per-leaf statuses that the rollover orchestrator flips as leaves
// drain and come back. The aggregator holds one Router and consults it per
// query; the orchestrator mutates it (directly in-process, or through the
// aggregator's admin RPC across processes).
type Router struct {
	mu     sync.Mutex
	m      *Map
	status []Status
	// version counts mutations, so dashboards can tell a stale view apart.
	version int64
}

// NewRouter wraps a map with every leaf ACTIVE.
func NewRouter(m *Map) *Router {
	return &Router{m: m, status: make([]Status, len(m.Leaves))}
}

// Map returns the underlying immutable map.
func (r *Router) Map() *Map {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m
}

// SetStatus flips one leaf's status by index.
func (r *Router) SetStatus(leaf int, s Status) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if leaf < 0 || leaf >= len(r.status) {
		return fmt.Errorf("shard: no leaf %d in map of %d", leaf, len(r.status))
	}
	r.status[leaf] = s
	r.version++
	return nil
}

// SetStatusByName flips one leaf's status by name.
func (r *Router) SetStatusByName(name string, s Status) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := r.m.LeafIndex(name)
	if i < 0 {
		return fmt.Errorf("shard: no leaf %q in map", name)
	}
	r.status[i] = s
	r.version++
	return nil
}

// Status returns a copy of the per-leaf statuses.
func (r *Router) Status() []Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Status(nil), r.status...)
}

// Version returns the mutation count.
func (r *Router) Version() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.version
}

// Assign snapshots map+status and routes one table. Queries in flight keep
// the snapshot they routed with; the next query sees the new statuses.
func (r *Router) Assign(table string) Assignment {
	r.mu.Lock()
	m, status := r.m, append([]Status(nil), r.status...)
	r.mu.Unlock()
	return m.Assign(table, status)
}

// WritePlan returns, for each shard of a table, the leaves a batch must be
// dual-written to (every non-down owner).
func (r *Router) WritePlan(table string) [][]int {
	r.mu.Lock()
	m, status := r.m, append([]Status(nil), r.status...)
	r.mu.Unlock()
	plan := make([][]int, m.NumShards)
	for s := 0; s < m.NumShards; s++ {
		plan[s] = append([]int(nil), m.WriteTargets(table, s, status)...)
	}
	return plan
}
