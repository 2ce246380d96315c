package registry

import (
	"strings"
	"testing"
	"time"
)

func TestClientReconnectsAfterRegistryRestart(t *testing.T) {
	s := newTestServer(t, ServerConfig{Shards: 4})
	addr := s.Addr()
	c := NewClient(addr)
	defer c.Close()
	if err := c.Register("sup-a", "a:1", nil); err != nil {
		t.Fatal(err)
	}
	// Restart the registry on the same address: in-memory state is gone.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := NewServer(ServerConfig{Addr: addr, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	// The client's cached connection is dead; do() must redial. The
	// fresh registry has no lease, so the heartbeat's answer is the
	// re-register cue — exactly what a daemon's heartbeat loop acts on.
	err = c.Heartbeat("sup-a")
	if err == nil {
		t.Fatal("heartbeat against a fresh registry succeeded")
	}
	if !strings.Contains(err.Error(), "unknown lease") {
		t.Fatalf("heartbeat after restart: %v, want unknown lease", err)
	}
	if err := c.Register("sup-a", "a:1", nil); err != nil {
		t.Fatalf("re-register after restart: %v", err)
	}
}

func TestResolverFollowsHandoff(t *testing.T) {
	s := newTestServer(t, ServerConfig{Shards: 4})
	c := newTestClient(t, s)
	if err := c.Register("sup-a", "a:1", nil); err != nil {
		t.Fatal(err)
	}
	rc := NewClient(s.Addr())
	defer rc.Close()
	r := NewResolver(rc, time.Hour) // cache would never age out on its own
	addr, err := r.Resolve("m-00000")
	if err != nil {
		t.Fatal(err)
	}
	if addr != "a:1" {
		t.Fatalf("resolve = %q, want a:1", addr)
	}
	// Handoff: a joins' peer takes over after a drain. The cached map
	// still says a:1; Invalidate is the drain-aware caller's fast path.
	if err := c.Register("sup-b", "b:1", nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain("sup-a"); err != nil {
		t.Fatal(err)
	}
	r.Invalidate()
	addr, err = r.Resolve("m-00000")
	if err != nil {
		t.Fatal(err)
	}
	if addr != "b:1" {
		t.Fatalf("resolve after handoff = %q, want b:1", addr)
	}
}

// TestResolverInvalidatesOnNewerEpoch pins the epoch-staleness fix: a
// TTL-cached map must be dropped as soon as the shared client observes
// a newer ownership epoch on any response. Without the check, a merger
// (or autoscaler) sharing the client would be routed to the drained
// owner for a full TTL after the handoff.
func TestResolverInvalidatesOnNewerEpoch(t *testing.T) {
	s := newTestServer(t, ServerConfig{Shards: 4})
	rc := NewClient(s.Addr())
	defer rc.Close()
	if err := rc.Register("sup-a", "a:1", nil); err != nil {
		t.Fatal(err)
	}
	r := NewResolver(rc, time.Hour) // TTL alone would never refresh
	if addr, err := r.Resolve("m-00000"); err != nil || addr != "a:1" {
		t.Fatalf("resolve = %q, %v, want a:1", addr, err)
	}
	// Ownership moves: a peer joins and sup-a drains. The resolver's
	// cached map still says a:1.
	c2 := newTestClient(t, s)
	if err := c2.Register("sup-b", "b:1", nil); err != nil {
		t.Fatal(err)
	}
	if err := c2.Drain("sup-a"); err != nil {
		t.Fatal(err)
	}
	// The shared client observes the bumped epoch on an unrelated op (a
	// daemon heartbeating through the same client is the real-world
	// shape); the resolver must notice without Invalidate or TTL expiry.
	if err := rc.Heartbeat("sup-a"); err != nil {
		t.Fatal(err)
	}
	addr, err := r.Resolve("m-00000")
	if err != nil {
		t.Fatal(err)
	}
	if addr != "b:1" {
		t.Fatalf("resolve after epoch bump = %q, want b:1 (stale cache served)", addr)
	}
}

// TestResolverSurvivesEpochResetAfterRestart pins the restart half of
// the epoch-staleness fix: the server epoch counter is in-memory, so a
// restarted registry hands out epochs far below a long-lived client's
// watermark. The client must forget its observed epoch line on redial —
// otherwise every post-restart map reads as stale and the Resolver
// re-fetches on every single lookup (a FetchMap per parked-fetch retry
// on the merger hot path) until the new counter surpasses the old one.
func TestResolverSurvivesEpochResetAfterRestart(t *testing.T) {
	s := newTestServer(t, ServerConfig{Shards: 4})
	addr := s.Addr()
	rc := NewClient(addr)
	defer rc.Close()
	// Pump the epoch well above where the restarted registry will start:
	// each join/leave moves shard ownership and bumps it.
	if err := rc.Register("base", "base:1", nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := rc.Register("pump", "p:1", nil); err != nil {
			t.Fatal(err)
		}
		if err := rc.Deregister("pump"); err != nil {
			t.Fatal(err)
		}
	}
	highWater := rc.LastEpoch()
	if highWater < 10 {
		t.Fatalf("epoch after churn = %d, want >= 10", highWater)
	}
	// Restart on the same address: leases, map, and epoch counter reset.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := NewServer(ServerConfig{Addr: addr, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	// The first op redials (dead cached connection) and must drop the
	// pre-restart watermark along with it.
	if err := rc.Register("sup-a", "a:1", nil); err != nil {
		t.Fatalf("re-register after restart: %v", err)
	}
	if got := rc.LastEpoch(); got >= highWater {
		t.Fatalf("LastEpoch after restart redial = %d, want the pre-restart watermark %d forgotten", got, highWater)
	}
	r := NewResolver(rc, time.Hour)
	if addr, err := r.Resolve("m-00000"); err != nil || addr != "a:1" {
		t.Fatalf("resolve = %q, %v, want a:1", addr, err)
	}
	// Ownership moves behind the client's back (a second client bumps
	// the post-restart epoch, still far below the old watermark). Within
	// the TTL the resolver must keep trusting its cache: with the bug,
	// cachedEpoch < LastEpoch-watermark forces a re-fetch right here and
	// the handoff shows through despite the 1h TTL.
	c2 := newTestClient(t, s2)
	if err := c2.Register("sup-b", "b:1", nil); err != nil {
		t.Fatal(err)
	}
	if err := c2.Drain("sup-a"); err != nil {
		t.Fatal(err)
	}
	if addr, err := r.Resolve("m-00000"); err != nil || addr != "a:1" {
		t.Fatalf("resolve inside TTL = %q, %v, want cached a:1 (cache thrashed)", addr, err)
	}
}

// TestRegisterSupplierCarriesDebugAddr pins the debug-address
// advertisement the autoscaler's collector depends on.
func TestRegisterSupplierCarriesDebugAddr(t *testing.T) {
	s := newTestServer(t, ServerConfig{Shards: 4})
	c := newTestClient(t, s)
	info := SupplierInfo{ID: "sup-a", Addr: "a:1", DebugAddr: "a:6061"}
	if err := c.RegisterSupplier(info); err != nil {
		t.Fatal(err)
	}
	m, err := c.FetchMap()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Suppliers) != 1 || m.Suppliers[0].DebugAddr != "a:6061" {
		t.Fatalf("map suppliers = %+v, want one entry advertising a:6061", m.Suppliers)
	}
}

// TestClientTracksEpoch pins LastEpoch's monotonic observation.
func TestClientTracksEpoch(t *testing.T) {
	s := newTestServer(t, ServerConfig{Shards: 4})
	c := newTestClient(t, s)
	if got := c.LastEpoch(); got != 0 {
		t.Fatalf("fresh client LastEpoch = %d, want 0", got)
	}
	if err := c.Register("sup-a", "a:1", nil); err != nil {
		t.Fatal(err)
	}
	after := c.LastEpoch()
	if after == 0 {
		t.Fatal("register response did not advance LastEpoch")
	}
	// A heartbeat carries the same epoch; LastEpoch must not regress.
	if err := c.Heartbeat("sup-a"); err != nil {
		t.Fatal(err)
	}
	if got := c.LastEpoch(); got != after {
		t.Fatalf("LastEpoch moved %d -> %d without an ownership change", after, got)
	}
}

// TestResolverRetriesUnownedShard pins the forced-refresh path: a
// cached map with an unowned shard triggers one re-fetch before the
// error surfaces, so a supplier registering between fetches is found
// without waiting out the TTL.
func TestResolverRetriesUnownedShard(t *testing.T) {
	s := newTestServer(t, ServerConfig{Shards: 4})
	c := newTestClient(t, s)
	// A draining supplier keeps the map non-empty but owns nothing.
	if err := c.Register("sup-a", "a:1", nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain("sup-a"); err != nil {
		t.Fatal(err)
	}
	rc := NewClient(s.Addr())
	defer rc.Close()
	r := NewResolver(rc, time.Hour)
	other := taskInShard(t, 1, 4)
	if _, err := r.Resolve(other); err == nil {
		t.Fatal("resolve of an unowned shard succeeded")
	}
	// Now the shard gains an owner; the stale cache must not mask it.
	if err := c.Register("sup-b", "b:1", nil); err != nil {
		t.Fatal(err)
	}
	addr, err := r.Resolve(other)
	if err != nil {
		t.Fatal(err)
	}
	if addr != "b:1" {
		t.Fatalf("resolve = %q, want b:1", addr)
	}
}
