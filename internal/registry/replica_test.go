package registry

import (
	"fmt"
	"testing"
)

// checkReplicaSets asserts the structural invariants of a replica map:
// every owned shard's set leads with the primary, holds no duplicate
// supplier address, and carries at most want entries.
func checkReplicaSets(t *testing.T, m Map, want int) {
	t.Helper()
	if len(m.Replicas) != len(m.Shards) {
		t.Fatalf("replica map has %d shards, ownership map %d", len(m.Replicas), len(m.Shards))
	}
	for i, set := range m.Replicas {
		if m.Shards[i] == "" {
			if len(set) != 0 {
				t.Fatalf("unowned shard %d has replica set %v", i, set)
			}
			continue
		}
		if len(set) == 0 || set[0] != m.Shards[i] {
			t.Fatalf("shard %d replica set %v does not lead with primary %q", i, set, m.Shards[i])
		}
		if len(set) > want {
			t.Fatalf("shard %d has %d replicas, want at most %d", i, len(set), want)
		}
		seen := map[string]bool{}
		for _, addr := range set {
			if seen[addr] {
				t.Fatalf("shard %d places two replicas on %q: %v", i, addr, set)
			}
			seen[addr] = true
		}
	}
}

func TestReplicaPlacementDistinctSuppliers(t *testing.T) {
	s := newTestServer(t, ServerConfig{Replicas: 3})
	c := newTestClient(t, s)
	for _, r := range [][2]string{{"sup-a", "a:1"}, {"sup-b", "b:1"}, {"sup-c", "c:1"}} {
		if err := c.Register(r[0], r[1], nil); err != nil {
			t.Fatal(err)
		}
	}
	m, err := c.FetchMap()
	if err != nil {
		t.Fatal(err)
	}
	checkReplicaSets(t, m, 3)
	for i, set := range m.Replicas {
		if len(set) != 3 {
			t.Fatalf("shard %d has replica set %v, want all 3 suppliers", i, set)
		}
	}
	// Lookup agrees with the map: full set, primary first.
	task := taskInShard(t, 3, numShards)
	addrs, err := c.LookupReplicas(task)
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 3 || addrs[0] != m.Shards[3] {
		t.Fatalf("LookupReplicas(%s) = %v, want 3 addrs led by %q", task, addrs, m.Shards[3])
	}
}

func TestReplicaPlacementCapsAtEligible(t *testing.T) {
	// More replica slots than suppliers: sets shrink, never duplicate.
	s := newTestServer(t, ServerConfig{Replicas: 3})
	c := newTestClient(t, s)
	for _, r := range [][2]string{{"sup-a", "a:1"}, {"sup-b", "b:1"}} {
		if err := c.Register(r[0], r[1], nil); err != nil {
			t.Fatal(err)
		}
	}
	m, err := c.FetchMap()
	if err != nil {
		t.Fatal(err)
	}
	checkReplicaSets(t, m, 3)
	for i, set := range m.Replicas {
		if len(set) != 2 {
			t.Fatalf("shard %d has replica set %v, want the 2 live suppliers", i, set)
		}
	}
}

func TestReplicaSetShrinksOnDrain(t *testing.T) {
	s := newTestServer(t, ServerConfig{Replicas: 2})
	c := newTestClient(t, s)
	for _, r := range [][2]string{{"sup-a", "a:1"}, {"sup-b", "b:1"}} {
		if err := c.Register(r[0], r[1], nil); err != nil {
			t.Fatal(err)
		}
	}
	before, err := c.FetchMap()
	if err != nil {
		t.Fatal(err)
	}
	checkReplicaSets(t, before, 2)
	if err := c.Drain("sup-a"); err != nil {
		t.Fatal(err)
	}
	after, err := c.FetchMap()
	if err != nil {
		t.Fatal(err)
	}
	if after.Epoch <= before.Epoch {
		t.Fatalf("epoch did not advance on drain: %d -> %d", before.Epoch, after.Epoch)
	}
	checkReplicaSets(t, after, 2)
	for i, set := range after.Replicas {
		if len(set) != 1 || set[0] != "b:1" {
			t.Fatalf("shard %d replica set %v after drain, want just the survivor", i, set)
		}
	}
}

func TestReplicaSameIDRestartRejoins(t *testing.T) {
	s := newTestServer(t, ServerConfig{Replicas: 2})
	c := newTestClient(t, s)
	for _, r := range [][2]string{{"sup-a", "a:1"}, {"sup-b", "b:1"}, {"sup-c", "c:1"}} {
		if err := c.Register(r[0], r[1], nil); err != nil {
			t.Fatal(err)
		}
	}
	// sup-b restarts on a new port and reclaims its identity.
	if err := c.Register("sup-b", "b:2", nil); err != nil {
		t.Fatal(err)
	}
	m, err := c.FetchMap()
	if err != nil {
		t.Fatal(err)
	}
	checkReplicaSets(t, m, 2)
	rejoined := false
	for i, set := range m.Replicas {
		if len(set) != 2 {
			t.Fatalf("shard %d replica set %v, want primary + 1 backup", i, set)
		}
		for _, addr := range set {
			if addr == "b:1" {
				t.Fatalf("shard %d still places a replica at stale address b:1", i)
			}
			if addr == "b:2" {
				rejoined = true
			}
		}
	}
	if !rejoined {
		t.Fatal("restarted supplier holds no replica placement at its new address")
	}
}

func TestReplicasOffByDefault(t *testing.T) {
	s := newTestServer(t, ServerConfig{})
	c := newTestClient(t, s)
	if err := c.Register("sup-a", "a:1", nil); err != nil {
		t.Fatal(err)
	}
	m, err := c.FetchMap()
	if err != nil {
		t.Fatal(err)
	}
	if m.Replicas != nil {
		t.Fatalf("replica map present without -replicas: %v", m.Replicas)
	}
	// LookupReplicas still answers: a 1-element set (the owner).
	addrs, err := c.LookupReplicas("m-00042")
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 1 || addrs[0] != "a:1" {
		t.Fatalf("LookupReplicas = %v, want just the owner", addrs)
	}
}

func TestResolverResolveReplicas(t *testing.T) {
	s := newTestServer(t, ServerConfig{Replicas: 2})
	c := newTestClient(t, s)
	for _, r := range [][2]string{{"sup-a", "a:1"}, {"sup-b", "b:1"}} {
		if err := c.Register(r[0], r[1], nil); err != nil {
			t.Fatal(err)
		}
	}
	res := NewResolver(c, 0)
	for i := 0; i < numShards; i++ {
		task := taskInShard(t, i, numShards)
		primary, err := res.Resolve(task)
		if err != nil {
			t.Fatal(err)
		}
		set, err := res.ResolveReplicas(task)
		if err != nil {
			t.Fatal(err)
		}
		if len(set) != 2 || set[0] != primary {
			t.Fatalf("shard %d: ResolveReplicas = %v, want pair led by Resolve's %q", i, set, primary)
		}
		if set[1] == primary {
			t.Fatalf("shard %d: backup duplicates the primary: %v", i, set)
		}
	}
	// The replica set follows a drain within one epoch observation, just
	// like Resolve does: on a shard sup-a led, the primary moves; on one
	// sup-b leads, sup-a's backup slot is dropped.
	if err := c.Drain("sup-a"); err != nil {
		t.Fatal(err)
	}
	res.Invalidate()
	for _, shard := range []int{0, numShards - 1} {
		set, err := res.ResolveReplicas(taskInShard(t, shard, numShards))
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(set) != "[b:1]" {
			t.Fatalf("shard %d: post-drain replica set = %v, want just the survivor", shard, set)
		}
	}
}
