package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrUnknownLease reports a heartbeat or drain for an identity the
// registry does not hold — the lease expired, or the registry
// restarted. The client's recovery is to re-register under the same ID.
var ErrUnknownLease = errors.New("registry: unknown lease")

// Client is a registry client over one persistent connection. Calls are
// serialized (the protocol is request/response lockstep); a transport
// error tears the connection down and the next call redials, so a
// registry restart is a transient error, not a stuck client.
type Client struct {
	addr string

	// lastEpoch is the newest ownership epoch observed on any response
	// (every op echoes the current epoch). A Resolver sharing this
	// client compares its cached map against it, so an epoch bump seen
	// by a heartbeat or register invalidates the cache immediately
	// instead of after a full TTL. It resets to zero whenever the
	// connection drops: the server's epoch counter is in-memory, so a
	// redial may reach a restarted registry whose epochs start over
	// below everything observed on the old line.
	lastEpoch atomic.Uint64

	mu   sync.Mutex
	conn net.Conn
	enc  *json.Encoder
	dec  *json.Decoder
}

// NewClient creates a client for the registry at addr. The connection
// is dialed lazily on first use.
func NewClient(addr string) *Client { return &Client{addr: addr} }

// Close drops the connection (if any).
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropLocked()
}

func (c *Client) dropLocked() error {
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn, c.enc, c.dec = nil, nil, nil
	// Forget the observed epoch line along with the connection. Epochs
	// are only comparable within one server lifetime; keeping a high
	// pre-restart watermark would make every post-restart map look
	// stale and force a Resolver re-fetch on every single lookup until
	// the new counter caught up. The cost of forgetting is bounded: a
	// Resolver trusts its cache for at most one TTL before re-fetching.
	c.lastEpoch.Store(0)
	return err
}

func (c *Client) ensureLocked() error {
	if c.conn != nil {
		return nil
	}
	conn, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
	if err != nil {
		return fmt.Errorf("registry: dial %s: %w", c.addr, err)
	}
	c.conn = conn
	c.enc = json.NewEncoder(conn)
	c.dec = json.NewDecoder(conn)
	return nil
}

// do sends one request and reads its response, redialing once if the
// cached connection turns out dead (registry restart, idle timeout).
func (c *Client) do(req request) (response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for attempt := 0; ; attempt++ {
		if err := c.ensureLocked(); err != nil {
			return response{}, err
		}
		var resp response
		err := c.enc.Encode(req)
		if err == nil {
			err = c.dec.Decode(&resp)
		}
		if err != nil {
			c.dropLocked()
			if attempt == 0 {
				continue
			}
			return response{}, fmt.Errorf("registry: %s: %w", req.Op, err)
		}
		c.observeEpoch(resp.Epoch)
		if resp.Err == errUnknownLease {
			return resp, fmt.Errorf("%w (%s)", ErrUnknownLease, req.ID)
		}
		if !resp.OK {
			return resp, fmt.Errorf("registry: %s: %s", req.Op, resp.Err)
		}
		return resp, nil
	}
}

// observeEpoch records the newest ownership epoch seen on any response.
func (c *Client) observeEpoch(e uint64) {
	for {
		cur := c.lastEpoch.Load()
		if e <= cur || c.lastEpoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// LastEpoch returns the newest ownership epoch this client has observed
// on any response. Zero means no response carried an epoch yet.
func (c *Client) LastEpoch() uint64 { return c.lastEpoch.Load() }

// Register announces a supplier: id is its stable identity, addr its
// fetch address. Every supplier serves every shard; the third argument
// is kept for the repository benchmark's one call, which passes nil,
// and a non-empty shard list is rejected.
func (c *Client) Register(id, addr string, shards []int) error {
	if len(shards) > 0 {
		return errors.New("registry: suppliers serve every shard; a shard list is not supported")
	}
	return c.RegisterSupplier(SupplierInfo{ID: id, Addr: addr})
}

// RegisterSupplier announces a supplier from a full SupplierInfo,
// including the optional debug address the autoscaler's collector polls.
func (c *Client) RegisterSupplier(info SupplierInfo) error {
	_, err := c.do(request{Op: "register", ID: info.ID, Addr: info.Addr, Debug: info.DebugAddr})
	return err
}

// Heartbeat extends the supplier's lease. ErrUnknownLease means the
// lease is gone — re-register.
func (c *Client) Heartbeat(id string) error {
	_, err := c.do(request{Op: "heartbeat", ID: id})
	return err
}

// Drain marks the supplier draining: it keeps its lease (and keeps
// heartbeating) but its shards are handed to peers immediately.
func (c *Client) Drain(id string) error {
	_, err := c.do(request{Op: "drain", ID: id})
	return err
}

// Deregister removes the supplier.
func (c *Client) Deregister(id string) error {
	_, err := c.do(request{Op: "deregister", ID: id})
	return err
}

// Lookup resolves a map task to the address of the supplier owning its
// shard.
func (c *Client) Lookup(task string) (string, error) {
	resp, err := c.do(request{Op: "lookup", Task: task})
	if err != nil {
		return "", err
	}
	return resp.Addr, nil
}

// LookupReplicas resolves a map task to its shard's full replica set,
// primary first. With a replica count of 1 the set has one element.
func (c *Client) LookupReplicas(task string) ([]string, error) {
	resp, err := c.do(request{Op: "lookup", Task: task})
	if err != nil {
		return nil, err
	}
	if len(resp.Addrs) > 0 {
		return resp.Addrs, nil
	}
	return []string{resp.Addr}, nil
}

// FetchMap retrieves the full ownership map.
func (c *Client) FetchMap() (Map, error) {
	resp, err := c.do(request{Op: "map"})
	if err != nil {
		return Map{}, err
	}
	if resp.Map == nil {
		return Map{}, errors.New("registry: map response without a map")
	}
	return *resp.Map, nil
}

// DefaultResolverTTL bounds how stale a Resolver's cached map may get.
// It trades registry round trips against handoff latency: a merger
// chasing a moved shard re-fetches the map at most once per TTL.
const DefaultResolverTTL = 200 * time.Millisecond

// Resolver caches the ownership map and answers task→address queries
// from it, re-fetching when the cache ages out or a shard shows no
// owner. It is the glue handed to core.MergerConfig.Resolver: cheap
// enough to consult on every parked-fetch retry, fresh enough to follow
// a drain handoff within one TTL.
type Resolver struct {
	c   *Client
	ttl time.Duration

	mu      sync.Mutex
	m       Map
	fetched time.Time
	valid   bool
}

// NewResolver wraps a client in a caching resolver. ttl zero means
// DefaultResolverTTL.
func NewResolver(c *Client, ttl time.Duration) *Resolver {
	if ttl <= 0 {
		ttl = DefaultResolverTTL
	}
	return &Resolver{c: c, ttl: ttl}
}

// Invalidate drops the cached map; the next Resolve re-fetches.
func (r *Resolver) Invalidate() {
	r.mu.Lock()
	r.valid = false
	r.mu.Unlock()
}

// Resolve returns the address of the supplier owning task's shard.
func (r *Resolver) Resolve(task string) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	refetched := false
	// A newer epoch observed by the shared client (on any op — a
	// heartbeat, a register, another caller's map fetch) proves the
	// cached map predates an ownership change; waiting out the TTL
	// would serve the stale owner for its full duration.
	if r.valid && r.m.Epoch < r.c.LastEpoch() {
		r.valid = false
	}
	if !r.valid || time.Since(r.fetched) > r.ttl {
		if err := r.refreshLocked(); err != nil {
			return "", err
		}
		refetched = true
	}
	addr, err := r.lookupLocked(task)
	if err != nil && !refetched {
		// The cached map predates a handoff; one forced refresh decides
		// whether the shard is truly unowned.
		if rerr := r.refreshLocked(); rerr != nil {
			return "", rerr
		}
		addr, err = r.lookupLocked(task)
	}
	return addr, err
}

// ResolveReplicas returns the full replica set of the supplier group
// serving task's shard, primary first. With a replica count of 1 (or a
// map predating replica support) the set is just the owner. It shares
// Resolve's cache and staleness rules, so it is cheap enough for a
// hedging merger to consult on every speculative launch.
func (r *Resolver) ResolveReplicas(task string) ([]string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	refetched := false
	if r.valid && r.m.Epoch < r.c.LastEpoch() {
		r.valid = false
	}
	if !r.valid || time.Since(r.fetched) > r.ttl {
		if err := r.refreshLocked(); err != nil {
			return nil, err
		}
		refetched = true
	}
	set, err := r.replicasLocked(task)
	if err != nil && !refetched {
		if rerr := r.refreshLocked(); rerr != nil {
			return nil, rerr
		}
		set, err = r.replicasLocked(task)
	}
	return set, err
}

// replicasLocked answers a replica-set query from the cached map.
func (r *Resolver) replicasLocked(task string) ([]string, error) {
	if len(r.m.Shards) == 0 {
		return nil, errors.New("registry: ownership map is empty (no suppliers registered)")
	}
	shard := ShardOf(task, len(r.m.Shards))
	if shard < len(r.m.Replicas) && len(r.m.Replicas[shard]) > 0 {
		// Copy: the cached map is shared and replaced on refresh.
		return append([]string(nil), r.m.Replicas[shard]...), nil
	}
	addr := r.m.Shards[shard]
	if addr == "" {
		return nil, fmt.Errorf("registry: shard %d (task %s) unowned", shard, task)
	}
	return []string{addr}, nil
}

func (r *Resolver) refreshLocked() error {
	m, err := r.c.FetchMap()
	if err != nil {
		r.valid = false
		return err
	}
	r.m, r.fetched, r.valid = m, time.Now(), true
	return nil
}

func (r *Resolver) lookupLocked(task string) (string, error) {
	if len(r.m.Shards) == 0 {
		return "", errors.New("registry: ownership map is empty (no suppliers registered)")
	}
	shard := ShardOf(task, len(r.m.Shards))
	addr := r.m.Shards[shard]
	if addr == "" {
		return "", fmt.Errorf("registry: shard %d (task %s) unowned", shard, task)
	}
	return addr, nil
}
