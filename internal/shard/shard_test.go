package shard

import (
	"fmt"
	"reflect"
	"testing"
)

// leaves builds n leaves spread over m machines, matching the cluster's
// GlobalID layout (machine-major).
func testLeaves(machines, perMachine int) []Leaf {
	var out []Leaf
	for m := 0; m < machines; m++ {
		for s := 0; s < perMachine; s++ {
			out = append(out, Leaf{Name: fmt.Sprintf("m%d-l%d", m, s), Machine: m})
		}
	}
	return out
}

func TestOwnersDeterministicAndDistinct(t *testing.T) {
	m := NewMap(testLeaves(4, 4), 2, 32)
	for s := 0; s < m.NumShards; s++ {
		a := m.Owners("events", s)
		b := m.Owners("events", s)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("shard %d: owners not deterministic: %v vs %v", s, a, b)
		}
		if len(a) != 2 {
			t.Fatalf("shard %d: owner count = %d, want 2", s, len(a))
		}
		if a[0] == a[1] {
			t.Fatalf("shard %d: duplicate owner %d", s, a[0])
		}
		if m.Leaves[a[0]].Machine == m.Leaves[a[1]].Machine {
			t.Errorf("shard %d: replicas %v share machine %d", s, a, m.Leaves[a[0]].Machine)
		}
	}
	// Different tables get independent assignments.
	if reflect.DeepEqual(m.Owners("events", 0), m.Owners("errors", 0)) &&
		reflect.DeepEqual(m.Owners("events", 1), m.Owners("errors", 1)) &&
		reflect.DeepEqual(m.Owners("events", 2), m.Owners("errors", 2)) {
		t.Error("three shards assigned identically across tables: hash ignores the table")
	}
}

func TestOwnersMoreReplicasThanMachines(t *testing.T) {
	// 2 machines, R=3: machine diversity is impossible; the third replica
	// must still be a distinct leaf.
	m := NewMap(testLeaves(2, 3), 3, 8)
	for s := 0; s < m.NumShards; s++ {
		owners := m.Owners("t", s)
		if len(owners) != 3 {
			t.Fatalf("shard %d: %d owners, want 3", s, len(owners))
		}
		seen := map[int]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("shard %d: duplicate owner in %v", s, owners)
			}
			seen[o] = true
		}
	}
}

func TestOwnersBalance(t *testing.T) {
	// With 256 shards over 16 leaves, primary load should be within a small
	// factor of the mean (rendezvous hashing balances well).
	m := NewMap(testLeaves(4, 4), 2, 256)
	load := make([]int, len(m.Leaves))
	for s := 0; s < m.NumShards; s++ {
		load[m.Owners("service_logs", s)[0]]++
	}
	mean := float64(m.NumShards) / float64(len(m.Leaves))
	for i, n := range load {
		if float64(n) > 2.5*mean || float64(n) < mean/4 {
			t.Errorf("leaf %d primary load %d far from mean %.1f: %v", i, n, mean, load)
		}
	}
}

// TestRouteFailover is the table-driven routing contract: active primaries
// serve; a draining or down primary's shards serve from the next replica; a
// shard with no live owner is unserved; and a DRAINING leaf never appears as
// the serving leaf of any shard.
func TestRouteFailover(t *testing.T) {
	m := NewMap(testLeaves(4, 2), 2, 16)
	const table = "events"
	primaryOf := func(s int) int { return m.Owners(table, s)[0] }
	replicaOf := func(s int) int { return m.Owners(table, s)[1] }

	cases := []struct {
		name   string
		status func() []Status
		check  func(t *testing.T, routes []Route, status []Status)
	}{
		{
			name:   "all active: every shard served by its primary",
			status: func() []Status { return make([]Status, len(m.Leaves)) },
			check: func(t *testing.T, routes []Route, _ []Status) {
				for _, r := range routes {
					if r.Leaf != r.Primary || r.Leaf != primaryOf(r.Shard) {
						t.Errorf("shard %d served by %d, want primary %d", r.Shard, r.Leaf, primaryOf(r.Shard))
					}
				}
			},
		},
		{
			name: "draining primary: replica promoted",
			status: func() []Status {
				st := make([]Status, len(m.Leaves))
				st[primaryOf(0)] = StatusDraining
				return st
			},
			check: func(t *testing.T, routes []Route, st []Status) {
				r := routes[0]
				if r.Leaf != replicaOf(0) {
					t.Errorf("shard 0 served by %d, want replica %d", r.Leaf, replicaOf(0))
				}
				if r.Leaf == r.Primary {
					t.Error("draining primary still marked serving")
				}
			},
		},
		{
			name: "down primary: replica promoted",
			status: func() []Status {
				st := make([]Status, len(m.Leaves))
				st[primaryOf(0)] = StatusDown
				return st
			},
			check: func(t *testing.T, routes []Route, _ []Status) {
				if routes[0].Leaf != replicaOf(0) {
					t.Errorf("shard 0 served by %d, want replica %d", routes[0].Leaf, replicaOf(0))
				}
			},
		},
		{
			name: "both owners out: shard unserved",
			status: func() []Status {
				st := make([]Status, len(m.Leaves))
				st[primaryOf(0)] = StatusDraining
				st[replicaOf(0)] = StatusDown
				return st
			},
			check: func(t *testing.T, routes []Route, _ []Status) {
				if routes[0].Leaf != -1 {
					t.Errorf("shard 0 served by %d despite both owners out", routes[0].Leaf)
				}
			},
		},
		{
			name: "no query ever routed to a draining leaf",
			status: func() []Status {
				st := make([]Status, len(m.Leaves))
				st[1], st[4], st[6] = StatusDraining, StatusDraining, StatusDown
				return st
			},
			check: func(t *testing.T, routes []Route, st []Status) {
				for _, r := range routes {
					if r.Leaf >= 0 && st[r.Leaf] != StatusActive {
						t.Errorf("shard %d routed to leaf %d in state %v", r.Shard, r.Leaf, st[r.Leaf])
					}
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := tc.status()
			tc.check(t, m.RouteTable(table, st), st)
		})
	}
}

// TestRebalanceStability pins the rendezvous property: removing one leaf
// only moves the shards that leaf owned; every other (shard, owner)
// relationship is unchanged. Adding a leaf only moves shards the new leaf
// now wins.
func TestRebalanceStability(t *testing.T) {
	base := testLeaves(4, 4)
	m16 := NewMap(base, 2, 128)
	const table = "service_logs"

	t.Run("remove", func(t *testing.T) {
		removed := base[5].Name
		m15 := NewMap(append(append([]Leaf(nil), base[:5]...), base[6:]...), 2, 128)
		moved := 0
		for s := 0; s < 128; s++ {
			before := ownerNames(m16, table, s)
			after := ownerNames(m15, table, s)
			if reflect.DeepEqual(before, after) {
				continue
			}
			moved++
			if !contains(before, removed) {
				t.Errorf("shard %d moved (%v -> %v) though %s owned no copy", s, before, after, removed)
			}
		}
		if moved == 0 {
			t.Error("removing a leaf moved nothing: it owned no shards at all?")
		}
	})

	t.Run("add", func(t *testing.T) {
		grown := append(append([]Leaf(nil), base...), Leaf{Name: "m4-l0", Machine: 4})
		m17 := NewMap(grown, 2, 128)
		for s := 0; s < 128; s++ {
			before := ownerNames(m16, table, s)
			after := ownerNames(m17, table, s)
			if reflect.DeepEqual(before, after) {
				continue
			}
			if !contains(after, "m4-l0") {
				t.Errorf("shard %d reshuffled (%v -> %v) without involving the new leaf", s, before, after)
			}
		}
	})
}

func ownerNames(m *Map, table string, s int) []string {
	var out []string
	for _, o := range m.Owners(table, s) {
		out = append(out, m.Leaves[o].Name)
	}
	return out
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func TestAssignGroupsAndUnserved(t *testing.T) {
	m := NewMap(testLeaves(2, 2), 2, 8)
	st := make([]Status, 4)
	a := m.Assign("t", st)
	served := 0
	for leaf, shards := range a.PerLeaf {
		if st[leaf] != StatusActive {
			t.Errorf("leaf %d assigned while not active", leaf)
		}
		served += len(shards)
	}
	if served != 8 || len(a.Unserved) != 0 || a.Total != 8 {
		t.Fatalf("assignment = %+v, want all 8 served", a)
	}
	// Every leaf down: everything unserved.
	for i := range st {
		st[i] = StatusDown
	}
	a = m.Assign("t", st)
	if len(a.PerLeaf) != 0 || len(a.Unserved) != 8 {
		t.Fatalf("assignment with all down = %+v", a)
	}
}

func TestWriteTargets(t *testing.T) {
	m := NewMap(testLeaves(2, 2), 2, 4)
	st := make([]Status, 4)
	owners := m.Owners("t", 0)
	// Draining owners still take writes; down owners do not.
	st[owners[0]] = StatusDraining
	got := m.WriteTargets("t", 0, st)
	if !reflect.DeepEqual(got, owners) {
		t.Errorf("draining primary dropped from write set: %v vs %v", got, owners)
	}
	st[owners[0]] = StatusDown
	got = m.WriteTargets("t", 0, st)
	if len(got) != 1 || got[0] != owners[1] {
		t.Errorf("write targets with down primary = %v, want [%d]", got, owners[1])
	}
}

func TestPhysicalTableRoundTrip(t *testing.T) {
	name := PhysicalTable("service_logs", 7)
	if name != "service_logs@7" {
		t.Fatalf("physical name = %q", name)
	}
}

func TestRouterStatusFlow(t *testing.T) {
	m := NewMap(testLeaves(2, 2), 2, 8)
	r := NewRouter(m)
	if err := r.SetStatus(1, StatusDraining); err != nil {
		t.Fatal(err)
	}
	if err := r.SetStatusByName("m1-l1", StatusDown); err != nil {
		t.Fatal(err)
	}
	st := r.Status()
	if st[1] != StatusDraining || st[3] != StatusDown {
		t.Fatalf("status = %v", st)
	}
	a := r.Assign("t")
	for leaf := range a.PerLeaf {
		if leaf == 1 || leaf == 3 {
			t.Errorf("leaf %d assigned while draining/down", leaf)
		}
	}
	if err := r.SetStatus(99, StatusActive); err == nil {
		t.Error("out-of-range SetStatus accepted")
	}
	if err := r.SetStatusByName("nope", StatusActive); err == nil {
		t.Error("unknown name accepted")
	}
	if r.Version() == 0 {
		t.Error("mutations did not bump version")
	}
}
