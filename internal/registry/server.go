package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"time"
)

// ServerConfig configures a registry Server.
type ServerConfig struct {
	// Addr is the TCP listen address (":0" for an ephemeral port).
	Addr string
	// LeaseTTL is how long a registration lives without a heartbeat.
	// Zero means the 3s default.
	LeaseTTL time.Duration
	// SweepInterval is how often expired leases are collected. Zero
	// means LeaseTTL/4.
	SweepInterval time.Duration
	// Replicas is how many suppliers each shard is placed on: one
	// primary plus Replicas-1 backups, all distinct, all advertising the
	// shard. Backups serve the same replicated MOF directories; hedging
	// mergers race speculative duplicates at them. Zero means 1 (no
	// replication). With fewer eligible suppliers than Replicas a shard
	// simply carries fewer backups — never a duplicate.
	Replicas int
	// Log, when set, receives one line per membership event (register,
	// expire, drain, deregister, reassignment).
	Log func(format string, args ...any)
}

// numShards is the deployment's shard count; ownership is tracked per
// shard, and every supplier serves every shard.
const numShards = 16

func (c *ServerConfig) applyDefaults() error {
	if c.LeaseTTL < 0 {
		return fmt.Errorf("registry: LeaseTTL %v must not be negative", c.LeaseTTL)
	}
	if c.SweepInterval < 0 {
		return fmt.Errorf("registry: SweepInterval %v must not be negative", c.SweepInterval)
	}
	if c.Replicas < 0 {
		return fmt.Errorf("registry: Replicas %d must not be negative", c.Replicas)
	}
	if c.LeaseTTL == 0 {
		c.LeaseTTL = 3 * time.Second
	}
	if c.SweepInterval == 0 {
		c.SweepInterval = c.LeaseTTL / 4
	}
	if c.Replicas == 0 {
		c.Replicas = 1
	}
	return nil
}

// lease is one supplier's registration plus its liveness deadline.
type lease struct {
	info    SupplierInfo
	expires time.Time
}

// Server is the discovery/ownership authority. All state is in memory;
// see the package comment for the restart story.
type Server struct {
	cfg ServerConfig
	lis net.Listener

	mu        sync.Mutex
	leases    map[string]*lease // supplier id -> lease
	owners    []string          // shard -> owning supplier id ("" unowned)
	backups   [][]string        // shard -> backup supplier ids (≤ Replicas-1, distinct from owner)
	epoch     uint64
	connsMu   sync.Mutex
	conns     map[net.Conn]bool
	done      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once

	unregister func() // debug-state registry removal
}

// NewServer starts a registry server.
func NewServer(cfg ServerConfig) (*Server, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	if cfg.Addr == "" {
		return nil, errors.New("registry: server needs an address")
	}
	lis, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("registry: listen: %w", err)
	}
	s := &Server{
		cfg:     cfg,
		lis:     lis,
		leases:  make(map[string]*lease),
		owners:  make([]string, numShards),
		backups: make([][]string, numShards),
		conns:   make(map[net.Conn]bool),
		done:    make(chan struct{}),
	}
	s.unregister = RegisterSource(s)
	s.wg.Add(1)
	go s.acceptLoop()
	s.wg.Add(1)
	go s.sweepLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Close stops the server and its connections.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		close(s.done)
		s.lis.Close()
		s.connsMu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.connsMu.Unlock()
		s.unregister()
	})
	s.wg.Wait()
	return nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log(format, args...)
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
			}
			return
		}
		s.connsMu.Lock()
		s.conns[conn] = true
		s.connsMu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn answers requests on one client connection until it closes.
// The connection is request/response lockstep: one JSON line in, one
// out. A malformed request drops the connection (protocol violation).
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.connsMu.Lock()
		delete(s.conns, conn)
		s.connsMu.Unlock()
		conn.Close()
	}()
	dec := json.NewDecoder(conn)
	enc := json.NewEncoder(conn)
	for {
		var req request
		if err := dec.Decode(&req); err != nil {
			return
		}
		select {
		case <-s.done:
			return
		default:
		}
		resp := s.handle(req, time.Now())
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
}

// handle executes one request against the membership state.
func (s *Server) handle(req request, now time.Time) response {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch req.Op {
	case "register":
		if req.ID == "" || req.Addr == "" {
			return response{Err: "register needs id and addr"}
		}
		if _, ok := s.leases[req.ID]; ok {
			// Same-ID re-registration: a restarted daemon reclaims its
			// identity; the fresh Addr replaces the stale one.
			s.logf("registry: %s re-registered at %s", req.ID, req.Addr)
		} else {
			s.logf("registry: %s registered at %s", req.ID, req.Addr)
		}
		s.leases[req.ID] = &lease{
			info:    SupplierInfo{ID: req.ID, Addr: req.Addr, DebugAddr: req.Debug},
			expires: now.Add(s.cfg.LeaseTTL),
		}
		regRegistrations.Inc()
		s.rebalanceLocked()
		return response{OK: true, Epoch: s.epoch}
	case "heartbeat":
		l, ok := s.leases[req.ID]
		if !ok {
			// The lease expired (or the registry restarted): the client
			// must re-register to be seen again.
			return response{Err: errUnknownLease}
		}
		l.expires = now.Add(s.cfg.LeaseTTL)
		regHeartbeats.Inc()
		return response{OK: true, Epoch: s.epoch}
	case "drain":
		l, ok := s.leases[req.ID]
		if !ok {
			return response{Err: errUnknownLease}
		}
		if !l.info.Draining {
			l.info.Draining = true
			s.logf("registry: %s draining", req.ID)
			s.rebalanceLocked()
		}
		return response{OK: true, Epoch: s.epoch}
	case "deregister":
		if _, ok := s.leases[req.ID]; ok {
			delete(s.leases, req.ID)
			s.logf("registry: %s deregistered", req.ID)
			s.rebalanceLocked()
		}
		return response{OK: true, Epoch: s.epoch}
	case "lookup":
		regLookups.Inc()
		shard := ShardOf(req.Task, numShards)
		owner := s.owners[shard]
		if owner == "" {
			return response{Err: fmt.Sprintf("shard %d unowned", shard)}
		}
		resp := response{OK: true, Addr: s.leases[owner].info.Addr, Epoch: s.epoch}
		if len(s.backups[shard]) > 0 {
			resp.Addrs = append(resp.Addrs, resp.Addr)
			for _, id := range s.backups[shard] {
				resp.Addrs = append(resp.Addrs, s.leases[id].info.Addr)
			}
		}
		return resp
	case "map":
		return response{OK: true, Epoch: s.epoch, Map: s.mapLocked()}
	}
	return response{Err: fmt.Sprintf("unknown op %q", req.Op)}
}

// mapLocked snapshots the ownership map. Must be called with mu held.
func (s *Server) mapLocked() *Map {
	m := &Map{Epoch: s.epoch, Shards: make([]string, len(s.owners))}
	for i, id := range s.owners {
		if id != "" {
			m.Shards[i] = s.leases[id].info.Addr
		}
	}
	if s.cfg.Replicas > 1 {
		m.Replicas = make([][]string, len(s.owners))
		for i, id := range s.owners {
			if id == "" {
				continue
			}
			set := make([]string, 0, 1+len(s.backups[i]))
			set = append(set, s.leases[id].info.Addr)
			for _, b := range s.backups[i] {
				set = append(set, s.leases[b].info.Addr)
			}
			m.Replicas[i] = set
		}
	}
	for _, id := range s.sortedIDsLocked() {
		m.Suppliers = append(m.Suppliers, s.leases[id].info)
	}
	return m
}

func (s *Server) sortedIDsLocked() []string {
	ids := make([]string, 0, len(s.leases))
	for id := range s.leases {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// rebalanceLocked reassigns shard ownership after a membership change.
// Deterministic and sticky: an eligible owner keeps its shards up to
// the balanced target (ceil(shards/eligible)), so joins and drains move
// the minimum number of shards; the rest go to the least-loaded
// eligible supplier. Draining suppliers are excluded —
// that exclusion IS the handoff: the moment a drain is recorded, the
// next map/lookup directs fetches at the peers. Must be called with mu
// held.
func (s *Server) rebalanceLocked() {
	eligible := make([]string, 0, len(s.leases))
	for _, id := range s.sortedIDsLocked() {
		if !s.leases[id].info.Draining {
			eligible = append(eligible, id)
		}
	}
	changed := false
	if len(eligible) == 0 {
		for i, owner := range s.owners {
			if owner != "" {
				s.owners[i] = ""
				changed = true
			}
		}
	} else {
		target := (len(s.owners) + len(eligible) - 1) / len(eligible)
		load := make(map[string]int, len(eligible))
		isEligible := make(map[string]bool, len(eligible))
		for _, id := range eligible {
			isEligible[id] = true
		}
		// Pass 1: sticky — keep eligible owners under target.
		for i, owner := range s.owners {
			if owner != "" && isEligible[owner] && load[owner] < target {
				load[owner]++
			} else if owner != "" {
				s.owners[i] = ""
				changed = true
			}
		}
		// Pass 2: place unowned shards on the least-loaded supplier.
		for i, owner := range s.owners {
			if owner != "" {
				continue
			}
			best := eligible[0]
			for _, id := range eligible[1:] {
				if load[id] < load[best] {
					best = id
				}
			}
			s.owners[i] = best
			load[best]++
			changed = true
		}
	}
	if s.cfg.Replicas > 1 {
		if s.rebalanceBackupsLocked(eligible) {
			changed = true
		}
	}
	if changed {
		s.epoch++
		regReassignments.Inc()
		regEpoch.Set(int64(s.epoch))
		s.logf("registry: ownership epoch %d (%d suppliers eligible)", s.epoch, len(eligible))
	}
	s.setMembershipGaugesLocked()
}

// rebalanceBackupsLocked re-places each shard's backup replicas after
// primary ownership settles: up to Replicas-1 suppliers per shard,
// distinct from the primary and each other, every one eligible. Sticky
// like primary placement — surviving backups keep their slots so churn
// moves the minimum number of replica assignments — with open slots
// going to the least-loaded eligible supplier. Returns whether any replica set changed (an epoch bump:
// cached maps carry the replica sets too). Must be called with mu held.
func (s *Server) rebalanceBackupsLocked(eligible []string) bool {
	changed := false
	want := s.cfg.Replicas - 1
	isEligible := make(map[string]bool, len(eligible))
	for _, id := range eligible {
		isEligible[id] = true
	}
	load := make(map[string]int, len(eligible))
	// Pass 1: sticky — keep surviving backups (shard still owned, backup
	// still eligible, still distinct from the owner).
	// A filtered slice either equals the original or is shorter, so a
	// length comparison detects every drop.
	for i := range s.backups {
		owner := s.owners[i]
		kept := s.backups[i][:0]
		if owner != "" {
			for _, id := range s.backups[i] {
				if len(kept) >= want {
					break
				}
				if id != owner && isEligible[id] && !slices.Contains(kept, id) {
					kept = append(kept, id)
					load[id]++
				}
			}
		}
		if len(kept) != len(s.backups[i]) {
			changed = true
		}
		s.backups[i] = kept
	}
	// Pass 2: fill open slots with the least-loaded eligible supplier not
	// already serving the shard. Fewer suppliers than slots just means a
	// thinner replica set — never a duplicate placement.
	for i := range s.backups {
		owner := s.owners[i]
		if owner == "" {
			continue
		}
		for len(s.backups[i]) < want {
			best := ""
			for _, id := range eligible {
				if id == owner || slices.Contains(s.backups[i], id) {
					continue
				}
				if best == "" || load[id] < load[best] {
					best = id
				}
			}
			if best == "" {
				break
			}
			s.backups[i] = append(s.backups[i], best)
			load[best]++
			changed = true
		}
	}
	return changed
}

// setMembershipGaugesLocked refreshes the membership gauges. Must be
// called with mu held.
func (s *Server) setMembershipGaugesLocked() {
	draining := 0
	for _, l := range s.leases {
		if l.info.Draining {
			draining++
		}
	}
	regSuppliers.Set(int64(len(s.leases)))
	regDraining.Set(int64(draining))
}

// sweep collects leases expired as of now and rebalances if any fell.
// Factored off the ticker loop so tests can race an explicit sweep
// against a heartbeat deterministically.
func (s *Server) sweep(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	expired := false
	for id, l := range s.leases {
		if now.After(l.expires) {
			delete(s.leases, id)
			expired = true
			regExpirations.Inc()
			s.logf("registry: %s lease expired", id)
		}
	}
	if expired {
		s.rebalanceLocked()
	}
}

func (s *Server) sweepLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.SweepInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.done:
			return
		case now := <-ticker.C:
			s.sweep(now)
		}
	}
}

// RegistryState snapshots the server for /debug/jbs/registry.
func (s *Server) RegistryState() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := State{
		Name:   "registry " + s.Addr(),
		Epoch:  s.epoch,
		Shards: numShards,
		Owners: append([]string(nil), s.owners...),
	}
	if s.cfg.Replicas > 1 {
		st.Backups = make([][]string, len(s.backups))
		for i, b := range s.backups {
			st.Backups[i] = append([]string(nil), b...)
		}
	}
	for _, id := range s.sortedIDsLocked() {
		st.Suppliers = append(st.Suppliers, s.leases[id].info)
	}
	return st
}
