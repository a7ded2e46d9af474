package cluster

import (
	"errors"
	"testing"

	"scuba/internal/leaf"
)

func TestCanaryDeployAndRevert(t *testing.T) {
	c := newCluster(t, 2, 4)
	loadCluster(t, c, 2000)
	before, _ := totalCount(t, c)

	can, err := c.StartCanary(CanaryConfig{Nodes: []int{1, 5}, Version: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, rs := range can.Deploy {
		if rs.Recovery != leaf.RecoveryMemory {
			t.Errorf("node %d deployed via %v", rs.Leaf, rs.Recovery)
		}
	}
	if c.Node(1).Version() != 42 || c.Node(5).Version() != 42 {
		t.Error("canary nodes not on experimental version")
	}
	if c.Node(0).Version() != 1 {
		t.Error("non-canary node changed version")
	}
	mid, _ := totalCount(t, c)
	if mid != before {
		t.Errorf("count %v -> %v during canary", before, mid)
	}

	reverts, err := can.Revert()
	if err != nil {
		t.Fatal(err)
	}
	if len(reverts) != 2 {
		t.Fatalf("reverted %d nodes", len(reverts))
	}
	for _, rs := range reverts {
		if rs.Recovery != leaf.RecoveryMemory {
			t.Errorf("node %d reverted via %v", rs.Leaf, rs.Recovery)
		}
	}
	if c.Node(1).Version() != 1 || c.Node(5).Version() != 1 {
		t.Error("canary nodes not reverted")
	}
	after, _ := totalCount(t, c)
	if after != before {
		t.Errorf("count %v -> %v after revert", before, after)
	}
	// Double revert is rejected.
	if _, err := can.Revert(); err == nil {
		t.Error("second revert succeeded")
	}
	// Without a Version the canary runs one past the newest in the cluster.
	if _, err := c.StartCanary(CanaryConfig{Nodes: []int{0}}); err != nil {
		t.Fatal(err)
	}
	if v := c.Node(0).Version(); v != 2 {
		t.Errorf("auto version = %d, want 2", v)
	}
}

func TestCanaryValidation(t *testing.T) {
	c := newCluster(t, 1, 2)
	if _, err := c.StartCanary(CanaryConfig{}); !errors.Is(err, ErrCanaryNodes) {
		t.Errorf("empty nodes: %v", err)
	}
	if _, err := c.StartCanary(CanaryConfig{Nodes: []int{99}}); !errors.Is(err, ErrCanaryNodes) {
		t.Errorf("out of range: %v", err)
	}
	if _, err := c.StartCanary(CanaryConfig{Nodes: []int{-1}}); !errors.Is(err, ErrCanaryNodes) {
		t.Errorf("negative: %v", err)
	}
}
