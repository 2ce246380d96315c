package registry

import (
	"errors"
	"testing"
	"time"
)

func newTestServer(t *testing.T, cfg ServerConfig) *Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func newTestClient(t *testing.T, s *Server) *Client {
	t.Helper()
	c := NewClient(s.Addr())
	t.Cleanup(func() { c.Close() })
	return c
}

func TestRegisterAssignsAllShards(t *testing.T) {
	s := newTestServer(t, ServerConfig{Shards: 8})
	c := newTestClient(t, s)
	// Before any supplier registers, every shard is unowned.
	if _, err := c.Lookup("m-00042"); err == nil {
		t.Fatal("lookup of an unowned shard succeeded")
	}
	if err := c.Register("sup-a", "127.0.0.1:9000", []int{0}); err == nil {
		t.Fatal("a shard list was accepted: every supplier serves every shard")
	}
	if err := c.Register("sup-a", "127.0.0.1:9000", nil); err != nil {
		t.Fatal(err)
	}
	m, err := c.FetchMap()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Shards) != 8 {
		t.Fatalf("map has %d shards, want 8", len(m.Shards))
	}
	for i, addr := range m.Shards {
		if addr != "127.0.0.1:9000" {
			t.Fatalf("shard %d owned by %q, want the only supplier", i, addr)
		}
	}
	addr, err := c.Lookup("m-00042")
	if err != nil {
		t.Fatal(err)
	}
	if addr != "127.0.0.1:9000" {
		t.Fatalf("lookup = %q", addr)
	}
}

func TestRebalanceIsStickyAndBalanced(t *testing.T) {
	s := newTestServer(t, ServerConfig{Shards: 8})
	c := newTestClient(t, s)
	if err := c.Register("sup-a", "a:1", nil); err != nil {
		t.Fatal(err)
	}
	m1, err := c.FetchMap()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Register("sup-b", "b:1", nil); err != nil {
		t.Fatal(err)
	}
	m2, err := c.FetchMap()
	if err != nil {
		t.Fatal(err)
	}
	if m2.Epoch <= m1.Epoch {
		t.Fatalf("epoch did not advance on join: %d -> %d", m1.Epoch, m2.Epoch)
	}
	counts := map[string]int{}
	sticky := 0
	for i, addr := range m2.Shards {
		counts[addr]++
		if addr == m1.Shards[i] {
			sticky++
		}
	}
	if counts["a:1"] != 4 || counts["b:1"] != 4 {
		t.Fatalf("ownership after join = %v, want 4/4", counts)
	}
	if sticky != 4 {
		t.Fatalf("%d shards stayed with sup-a, want exactly the balanced 4 (minimum movement)", sticky)
	}
}

func TestDrainHandsShardsToPeer(t *testing.T) {
	s := newTestServer(t, ServerConfig{Shards: 8})
	c := newTestClient(t, s)
	for _, r := range [][2]string{{"sup-a", "a:1"}, {"sup-b", "b:1"}} {
		if err := c.Register(r[0], r[1], nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Drain("sup-a"); err != nil {
		t.Fatal(err)
	}
	m, err := c.FetchMap()
	if err != nil {
		t.Fatal(err)
	}
	for i, addr := range m.Shards {
		if addr != "b:1" {
			t.Fatalf("shard %d owned by %q after drain, want the peer", i, addr)
		}
	}
	// The draining supplier keeps its lease: heartbeats still succeed.
	if err := c.Heartbeat("sup-a"); err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, info := range m.Suppliers {
		if info.ID == "sup-a" {
			found = true
			if !info.Draining {
				t.Fatal("sup-a not marked draining in the map")
			}
		}
	}
	if !found {
		t.Fatal("draining supplier vanished from the map before deregister")
	}
}

// taskInShard brute-forces a task name hashing into the given shard.
func taskInShard(t *testing.T, shard, shards int) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		task := "m-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		if ShardOf(task, shards) == shard {
			return task
		}
	}
	t.Fatalf("no task found for shard %d/%d", shard, shards)
	return ""
}

// TestLeaseExpiryRacingHeartbeat pins the sweep/heartbeat ordering: a
// heartbeat that lands before the sweep observes the lease keeps it
// alive past the original deadline, and a sweep that wins removes the
// lease so the very next heartbeat reports ErrUnknownLease — the
// client's cue to re-register.
func TestLeaseExpiryRacingHeartbeat(t *testing.T) {
	// A long sweep interval keeps the background sweeper out of the
	// test; expiry is driven through explicit sweep(now) calls.
	s := newTestServer(t, ServerConfig{Shards: 4, LeaseTTL: 100 * time.Millisecond, SweepInterval: time.Hour})
	c := newTestClient(t, s)
	if err := c.Register("sup-a", "a:1", nil); err != nil {
		t.Fatal(err)
	}
	born := time.Now()

	// Heartbeat first: the lease deadline moves, so a sweep at the
	// original deadline collects nothing.
	if err := c.Heartbeat("sup-a"); err != nil {
		t.Fatal(err)
	}
	s.sweep(born.Add(100 * time.Millisecond))
	if err := c.Heartbeat("sup-a"); err != nil {
		t.Fatalf("lease lost despite a live heartbeat: %v", err)
	}

	// Sweep far past any extension: the lease falls, the heartbeat that
	// raced in late is told to re-register, and re-registering under the
	// same ID resurrects the supplier.
	s.sweep(time.Now().Add(time.Hour))
	if err := c.Heartbeat("sup-a"); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("heartbeat after expiry: err = %v, want ErrUnknownLease", err)
	}
	if m, err := c.FetchMap(); err != nil || m.Shards[0] != "" {
		t.Fatalf("shards still owned after expiry: %v (err %v)", m.Shards, err)
	}
	if err := c.Register("sup-a", "a:1", nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Heartbeat("sup-a"); err != nil {
		t.Fatalf("heartbeat after re-register: %v", err)
	}
}

// TestSameIDReRegisterAfterCrash covers the crash-restart path: a new
// process re-registers under its old identity with a new address, and
// the map serves the new address immediately.
func TestSameIDReRegisterAfterCrash(t *testing.T) {
	s := newTestServer(t, ServerConfig{Shards: 4})
	c := newTestClient(t, s)
	if err := c.Register("sup-a", "a:1", nil); err != nil {
		t.Fatal(err)
	}
	// The "crashed" daemon restarts on a fresh port; no deregister ever
	// happened.
	if err := c.Register("sup-a", "a:2", nil); err != nil {
		t.Fatalf("same-ID re-register: %v", err)
	}
	m, err := c.FetchMap()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Suppliers) != 1 {
		t.Fatalf("%d suppliers after re-register, want 1", len(m.Suppliers))
	}
	for i, addr := range m.Shards {
		if addr != "a:2" {
			t.Fatalf("shard %d still routed to the dead address %q", i, addr)
		}
	}
}

func TestRegistryStateSnapshot(t *testing.T) {
	s := newTestServer(t, ServerConfig{Shards: 4})
	c := newTestClient(t, s)
	if err := c.Register("sup-a", "a:1", nil); err != nil {
		t.Fatal(err)
	}
	st := s.RegistryState()
	if st.Shards != 4 || len(st.Owners) != 4 || len(st.Suppliers) != 1 {
		t.Fatalf("state = %+v", st)
	}
	found := false
	for _, snap := range Snapshot() {
		if snap.Name == st.Name {
			found = true
		}
	}
	if !found {
		t.Fatal("server missing from the process-wide Snapshot")
	}
}
