// Package shard implements the cluster's shard map: the assignment of every
// table's shards to an ordered set of leaf servers — a primary plus R-1
// replicas — owned by the aggregator that routes queries (ISSUE 6; PAPERS.md
// "ReStore: In-Memory REplicated STORagE for Rapid Recovery").
//
// The paper's aggregators fan every query out to every leaf (§2); with a
// shard map the fan-out narrows to the leaves that own the table's shards,
// and — the point of replication — a query keeps full coverage while a leaf
// restarts, because each of the restarting leaf's shards fails over to the
// next live replica in its owner list. That is what turns the §5 rolling
// restart ("98% of data queryable") into 100% of data queryable for R >= 2,
// with the 1 - BatchFraction bound as the replica-less floor.
//
// Assignment is rendezvous (highest-random-weight) hashing of
// (table, shard, leaf): deterministic from the leaf list alone, no central
// allocation state, and stable under membership change — adding or removing
// one leaf only moves the shards that leaf owned (or now wins), never
// reshuffles the rest. Replicas prefer distinct machines so one machine's
// batch of restarts never takes both copies of a shard down.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// Status is a leaf's routability as seen by the shard map owner.
type Status uint8

// Leaf statuses.
const (
	// StatusActive leaves serve queries and receive writes.
	StatusActive Status = iota
	// StatusDraining leaves are about to restart (the rollover orchestrator
	// marks a leaf draining before its shutdown RPC): no query is routed to
	// them, their shards serve from replicas, but writes still land (the
	// drain copies them to shared memory).
	StatusDraining
	// StatusDown leaves are gone (crashed, quarantined): no queries, no
	// writes.
	StatusDown
)

func (s Status) String() string {
	switch s {
	case StatusActive:
		return "ACTIVE"
	case StatusDraining:
		return "DRAINING"
	case StatusDown:
		return "DOWN"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Leaf is one leaf slot in the map. Name is the routing identity (the leaf's
// address in a distributed deployment, a label in-process); Machine groups
// leaves for replica placement — replicas of one shard prefer distinct
// machines.
type Leaf struct {
	Name    string
	Machine int
}

// Map is the shard map: a leaf list plus the parameters that make shard
// ownership a pure function of it. It is immutable once built — status
// changes live in Router, not here — so it can be encoded, shipped, and
// compared freely.
type Map struct {
	// Leaves is the ordered leaf list; indices are the routing currency.
	Leaves []Leaf
	// Replication is the owner-list length R (primary + R-1 replicas),
	// capped at the leaf count.
	Replication int
	// NumShards is the number of shards each table is split into.
	NumShards int
}

// NewMap builds a map over the given leaves. replication <= 0 defaults to 1
// (no replicas); numShards <= 0 defaults to 2x the leaf count, so shards
// stay fine-grained enough that one leaf's loss spreads over many replicas.
func NewMap(leaves []Leaf, replication, numShards int) *Map {
	if replication <= 0 {
		replication = 1
	}
	if replication > len(leaves) && len(leaves) > 0 {
		replication = len(leaves)
	}
	if numShards <= 0 {
		numShards = 2 * len(leaves)
		if numShards == 0 {
			numShards = 1
		}
	}
	return &Map{
		Leaves:      append([]Leaf(nil), leaves...),
		Replication: replication,
		NumShards:   numShards,
	}
}

// PhysicalTable names the leaf-side table holding one shard of a logical
// table. Leaves store each shard separately so a leaf owning shard 3 as a
// primary and shard 7 as a replica can serve exactly the shards a query
// routes to it, never double-counting.
func PhysicalTable(table string, s int) string {
	return table + "@" + strconv.Itoa(s)
}

// hrw scores one (table, shard, leaf) triple. FNV-64a over the full key:
// cheap, deterministic across processes, and well-mixed enough that owner
// lists are balanced (the balance test pins the spread).
func hrw(table string, s int, leaf string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(table))           //nolint:errcheck
	h.Write([]byte{'/'})             //nolint:errcheck
	h.Write([]byte(strconv.Itoa(s))) //nolint:errcheck
	h.Write([]byte{'/'})             //nolint:errcheck
	h.Write([]byte(leaf))            //nolint:errcheck
	return h.Sum64()
}

// Owners returns the ordered owner list (primary first) for one shard of a
// table: the R leaves with the highest rendezvous scores, greedily skipping
// a leaf whose machine already holds a copy while machine-diverse choices
// remain. The result is a pure function of the map — two processes with the
// same map route identically without talking to each other.
func (m *Map) Owners(table string, s int) []int {
	if len(m.Leaves) == 0 {
		return nil
	}
	type scored struct {
		idx   int
		score uint64
	}
	ranked := make([]scored, len(m.Leaves))
	for i, l := range m.Leaves {
		ranked[i] = scored{idx: i, score: hrw(table, s, l.Name)}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return ranked[i].idx < ranked[j].idx // total order even on hash ties
	})
	owners := make([]int, 0, m.Replication)
	usedMachines := make(map[int]bool)
	// First pass: machine-diverse picks in rank order.
	for _, r := range ranked {
		if len(owners) == m.Replication {
			break
		}
		if usedMachines[m.Leaves[r.idx].Machine] {
			continue
		}
		owners = append(owners, r.idx)
		usedMachines[m.Leaves[r.idx].Machine] = true
	}
	// Second pass: fewer machines than replicas — fill from the remaining
	// rank order, allowing machine reuse.
	if len(owners) < m.Replication {
		taken := make(map[int]bool, len(owners))
		for _, o := range owners {
			taken[o] = true
		}
		for _, r := range ranked {
			if len(owners) == m.Replication {
				break
			}
			if !taken[r.idx] {
				owners = append(owners, r.idx)
			}
		}
	}
	return owners
}

// Route is one shard's routing decision for a query.
type Route struct {
	// Shard is the shard index within the table.
	Shard int
	// Leaf is the leaf index chosen to serve it (-1 when no owner is
	// routable — the shard is offline and coverage drops).
	Leaf int
	// Primary is the shard's primary owner; Leaf != Primary means the query
	// is being served by a replica (the primary is draining or down).
	Primary int
}

// RouteTable routes every shard of a table given per-leaf statuses (nil or
// short status slices read as ACTIVE): the first non-draining, non-down
// owner in rendezvous order serves the shard.
func (m *Map) RouteTable(table string, status []Status) []Route {
	routes := make([]Route, m.NumShards)
	for s := 0; s < m.NumShards; s++ {
		owners := m.Owners(table, s)
		r := Route{Shard: s, Leaf: -1, Primary: -1}
		if len(owners) > 0 {
			r.Primary = owners[0]
		}
		for _, o := range owners {
			if statusAt(status, o) == StatusActive {
				r.Leaf = o
				break
			}
		}
		routes[s] = r
	}
	return routes
}

// Assignment groups a routed table by serving leaf.
type Assignment struct {
	// PerLeaf maps leaf index -> the shards it serves for this query.
	PerLeaf map[int][]int
	// Unserved lists shards with no routable owner.
	Unserved []int
	// Total is the table's shard count.
	Total int
}

// Assign routes a table and groups the result per leaf — the shape the
// aggregator fans out: one RPC per serving leaf, carrying its shard list.
func (m *Map) Assign(table string, status []Status) Assignment {
	a := Assignment{PerLeaf: make(map[int][]int), Total: m.NumShards}
	for _, r := range m.RouteTable(table, status) {
		if r.Leaf < 0 {
			a.Unserved = append(a.Unserved, r.Shard)
			continue
		}
		a.PerLeaf[r.Leaf] = append(a.PerLeaf[r.Leaf], r.Shard)
	}
	return a
}

// WriteTargets returns the leaves a batch for one shard must be written to:
// every owner not marked down. Draining leaves still take writes — their
// drain copies the rows to shared memory, so nothing is lost across the
// restart — and a write that fails on one owner is covered by the others.
func (m *Map) WriteTargets(table string, s int, status []Status) []int {
	owners := m.Owners(table, s)
	out := owners[:0]
	for _, o := range owners {
		if statusAt(status, o) != StatusDown {
			out = append(out, o)
		}
	}
	return out
}

func statusAt(status []Status, i int) Status {
	if i < len(status) {
		return status[i]
	}
	return StatusActive
}

// LeafIndex finds a leaf by name (-1 when absent).
func (m *Map) LeafIndex(name string) int {
	for i, l := range m.Leaves {
		if l.Name == name {
			return i
		}
	}
	return -1
}

func (m *Map) String() string {
	return fmt.Sprintf("shardmap{%d leaves, R=%d, %d shards}", len(m.Leaves), m.Replication, m.NumShards)
}
