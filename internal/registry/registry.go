// Package registry is the discovery and shard-ownership layer for
// multi-process JBS deployments. Standalone suppliers register over a
// small TCP/JSON protocol, keep their registration alive with
// heartbeats against a lease; every supplier can serve every MOF
// shard, and the registry maintains a balanced shard→supplier ownership
// map, bumping its epoch whenever ownership moves. Mergers resolve a
// map task to the supplier currently owning its shard (via Client and
// the caching Resolver), so supplier churn — graceful drain, crash,
// restart — redirects fetches instead of losing them.
//
// The registry is deliberately small and authoritative-but-soft: it
// holds no shuffle data and no durable state. If it restarts, suppliers
// re-register on their next heartbeat (an unknown lease tells a client
// to re-register) and the world reconverges within one lease TTL.
package registry

import "hash/fnv"

// ShardOf maps a map-task id to its shard in [0, shards). Suppliers and
// mergers must agree on the shard count (a deployment constant, fixed
// at registry start) for ownership lookups to be meaningful.
func ShardOf(task string, shards int) int {
	h := fnv.New32a()
	h.Write([]byte(task))
	return int(h.Sum32() % uint32(shards))
}

// SupplierInfo describes one registered supplier.
type SupplierInfo struct {
	// ID is the supplier's stable identity. A re-registration under the
	// same ID (a crashed daemon restarting) replaces the previous entry.
	ID string `json:"id"`
	// Addr is the supplier's fetch listen address.
	Addr string `json:"addr"`
	// DebugAddr, when set, is the supplier's /debug/jbs HTTP address.
	// Control-plane consumers (the autoscaler's collector) poll flow
	// signals from it; the fetch data path never touches it.
	DebugAddr string `json:"debug_addr,omitempty"`
	// Draining marks a supplier shutting down gracefully: it keeps its
	// lease but is excluded from ownership assignment.
	Draining bool `json:"draining,omitempty"`
}

// Map is the registry's ownership view at one epoch.
type Map struct {
	// Epoch increments whenever shard ownership changes; cached maps are
	// comparable by epoch.
	Epoch uint64 `json:"epoch"`
	// Shards maps shard index to the owning supplier's fetch address
	// (empty string: unowned, no supplier is eligible).
	Shards []string `json:"shards"`
	// Replicas maps shard index to its replica set — the primary's
	// address first, then up to Replicas-1 backup suppliers holding the
	// same MOFs. Nil when the registry runs with a replica count of 1.
	// Hedging mergers race their speculative duplicates at the backups.
	Replicas [][]string `json:"replicas,omitempty"`
	// Suppliers lists every live registration.
	Suppliers []SupplierInfo `json:"suppliers,omitempty"`
}

// Wire protocol: one JSON object per line in each direction, one
// response per request, over a persistent TCP connection.
//
// Ops: "register" (ID, Addr), "heartbeat" (ID), "drain" (ID),
// "deregister" (ID), "lookup" (Task), "map".
type request struct {
	Op   string `json:"op"`
	ID   string `json:"id,omitempty"`
	Addr string `json:"addr,omitempty"`
	Task string `json:"task,omitempty"`
	// Debug carries the supplier's /debug/jbs address on register.
	Debug string `json:"debug,omitempty"`
}

type response struct {
	OK bool `json:"ok"`
	// Err carries the failure; errUnknownLease is recognized by the
	// client and surfaced as ErrUnknownLease.
	Err string `json:"err,omitempty"`
	// Addr answers a lookup.
	Addr string `json:"addr,omitempty"`
	// Addrs answers a lookup with the full replica set, primary first.
	// Present only when the registry runs with a replica count above 1.
	Addrs []string `json:"addrs,omitempty"`
	// Epoch is the ownership epoch after the op.
	Epoch uint64 `json:"epoch,omitempty"`
	// Map answers a map request.
	Map *Map `json:"map,omitempty"`
}

// errUnknownLease is the wire form of ErrUnknownLease.
const errUnknownLease = "unknown lease"
