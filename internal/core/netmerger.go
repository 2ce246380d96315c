package core

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/flow"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// MergerConfig configures a NetMerger.
type MergerConfig struct {
	// Transport is the network backend.
	Transport transport.Transport
	// MaxConnections caps the connection cache (512 in the paper).
	MaxConnections int
	// WindowPerNode bounds in-flight requests per remote node; across
	// nodes the injector is round-robin, so no node monopolizes the wire.
	// With Flow set it is only the AIMD starting point (flow.Config
	// WindowStart defaults to it); the live limit adapts per node.
	WindowPerNode int
	// MaxRetries is how many times a fetch is re-sent (on a freshly dialed
	// connection) after a transport failure before the error surfaces.
	MaxRetries int
	// FetchTimeout bounds how long a sent fetch may sit without a response
	// before its connection is declared stalled and failed over: a peer
	// that accepts the request and then never writes would otherwise hang
	// the fetch forever, since a healthy-looking TCP connection surfaces
	// no error. Zero means the 30s default.
	FetchTimeout time.Duration
	// RetryBackoff is the base delay before a failed fetch is re-sent; it
	// doubles per attempt (capped, jittered). Without it a refused or
	// flapping node burns the whole MaxRetries budget in microseconds.
	// Zero means the 2ms default.
	RetryBackoff time.Duration
	// Flow enables credit-based flow control: per-node AIMD windows
	// replacing the fixed WindowPerNode, plus shed handling with
	// jittered retry-after backoff. Nil keeps the paper's fixed window.
	Flow *flow.Config
	// Resolver maps a fetch spec to the supplier address that currently
	// owns its MOF shard. A spec with an empty Addr is resolved once at
	// Fetch, and every parked fetch (shed or failure backoff) is
	// re-resolved on unpark — so when a registry hands a draining or
	// crashed supplier's shards to a peer, in-flight retries follow the
	// ownership move instead of hammering the dead address. Nil keeps
	// static addressing: empty-Addr specs fail, and retries stay on
	// their original node.
	Resolver func(spec FetchSpec) (string, error)
	// Replicas maps a fetch spec to the full replica set of supplier
	// addresses holding its MOF, primary first. The hedging controller
	// races duplicates against the first distinct replica, and the
	// failure-retry path rotates through the set so a dead primary does
	// not eat the whole retry budget. The callback may block on
	// registry I/O; it is only invoked off the merger lock, on cold
	// paths (hedge launch, retry unpark). Nil disables both behaviors.
	Replicas func(spec FetchSpec) []string
	// Hedge enables speculative fetching: a fetch outliving its node's
	// quantile-derived latency threshold is raced against a replica,
	// the first CRC-clean response wins, and the loser is cancelled.
	// Requires Replicas. Nil disables hedging.
	Hedge *flow.HedgeConfig
}

func (c *MergerConfig) applyDefaults() error {
	if c.Transport == nil {
		return errors.New("core: merger needs a transport")
	}
	// Every numeric knob follows one rule: zero means default, negative is
	// rejected by name.
	if c.MaxConnections < 0 {
		return fmt.Errorf("core: merger MaxConnections %d must not be negative", c.MaxConnections)
	}
	if c.WindowPerNode < 0 {
		return fmt.Errorf("core: merger WindowPerNode %d must not be negative", c.WindowPerNode)
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("core: merger MaxRetries %d must not be negative", c.MaxRetries)
	}
	if c.FetchTimeout < 0 {
		return fmt.Errorf("core: merger FetchTimeout %v must not be negative", c.FetchTimeout)
	}
	if c.RetryBackoff < 0 {
		return fmt.Errorf("core: merger RetryBackoff %v must not be negative", c.RetryBackoff)
	}
	if c.FetchTimeout == 0 {
		c.FetchTimeout = 30 * time.Second
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 2 * time.Millisecond
	}
	if c.MaxConnections == 0 {
		c.MaxConnections = transport.DefaultMaxConnections
	}
	if c.WindowPerNode == 0 {
		c.WindowPerNode = 4
	}
	// Post-default guards: a non-positive effective value would wedge the
	// injector (no window slot, no connection, ever), so reject by name
	// rather than spin silently — even if a future default regresses.
	if c.MaxConnections <= 0 {
		return fmt.Errorf("core: merger MaxConnections %d must be positive", c.MaxConnections)
	}
	if c.WindowPerNode <= 0 {
		return fmt.Errorf("core: merger WindowPerNode %d must be positive", c.WindowPerNode)
	}
	if c.Flow != nil {
		// Copy before defaulting so a shared Config literal isn't mutated.
		fc := *c.Flow
		if fc.WindowStart == 0 {
			fc.WindowStart = c.WindowPerNode
		}
		if err := fc.ApplyDefaults(); err != nil {
			return err
		}
		c.Flow = &fc
	}
	if c.Hedge != nil {
		if c.Replicas == nil {
			return errors.New("core: merger Hedge requires Replicas (a hedge needs somewhere to race)")
		}
		hc := *c.Hedge
		if err := hc.ApplyDefaults(); err != nil {
			return err
		}
		c.Hedge = &hc
	}
	return nil
}

// MergerStats counts a NetMerger's work.
type MergerStats struct {
	Requests      int64
	BytesFetched  int64
	Errors        int64
	Retries       int64
	ConnectionsHi int64 // peak distinct remote nodes connected
	Sheds         int64 // shed responses received from suppliers
	ShedRetries   int64 // parked fetches re-queued after their backoff
	CorruptFrames int64 // frames rejected by the CRC32C checksum
	DeadlineTrips int64 // connections failed by the fetch deadline watchdog
	Rerouted      int64 // parked fetches whose owner changed on re-resolution

	// Hedging controller counters. Every speculative attempt launched
	// terminates as exactly one of wins, losses, sheds, fails, or
	// errors, so Hedges == HedgeWins + HedgeLosses + HedgeSheds +
	// HedgeFails + HedgeErrors once all fetches have resolved — the
	// conservation law the chaos harness asserts.
	Hedges         int64 // speculative duplicate fetches launched
	HedgeWins      int64 // fetches whose speculative attempt delivered first
	HedgeLosses    int64 // speculative attempts cancelled: the original won
	HedgeSheds     int64 // speculative attempts shed by the replica while the original raced
	HedgeFails     int64 // speculative attempts lost to a connection failure while the original raced
	HedgeErrors    int64 // speculative attempts that surfaced the fetch error after adoption
	HedgeAdoptions int64 // speculative attempts promoted to sole carrier (original failed or was shed)
	HedgeDenials   int64 // fetches past threshold left unhedged: duplicate budget exhausted
	HedgeDupBytes  int64 // payload bytes received for attempts that had already lost
}

// fetchResult is one completed fetch: data is the segment, a view into
// lease, whose ownership travels with the result (nil on error).
type fetchResult struct {
	spec  FetchSpec
	data  []byte
	lease *bufpool.Lease
	err   error
}

// pendingFetch is one request in flight through the NetMerger.
type pendingFetch struct {
	id   uint64
	spec FetchSpec
	// asm is this attempt's reassembly lease, sized by the segment's first
	// chunk; got is how much of it the chunks so far claim. m.mu guards
	// both but not the bytes: the connection's reader, their only writer,
	// copies outside the lock under a Retain of its own, so whoever retires
	// the attempt may dropAsm at once.
	asm      *bufpool.Lease
	got      int
	attempts int
	result   chan<- fetchResult
	// sentAt anchors the fetch RTT histogram; it is written under m.mu
	// just before injection (so the read side, also under m.mu, races with
	// nothing) and overwritten on each retry.
	sentAt time.Time
	// backoff is the pending retry timer while the fetch is parked (after
	// a shed response or between retry attempts); Close stops it. Guarded
	// by m.mu.
	backoff *time.Timer
	// shedPark distinguishes a shed park (counted as a shed retry on
	// unpark) from a failure-backoff park (already counted as a retry
	// when parked). Guarded by m.mu.
	shedPark bool

	// Hedging state, all guarded by m.mu. twin links the two attempts
	// of a hedged pair symmetrically; nil means this attempt races
	// alone (either it was never hedged, or its twin already resolved).
	// Exactly one attempt of a pair ever sends on result: the first
	// clean finisher cancels the other under the lock, and an attempt
	// that dies while its twin lives is cancelled quietly instead of
	// retrying or surfacing an error.
	twin *pendingFetch
	// isHedge marks the speculative (duplicate) attempt of a pair.
	isHedge bool
	// hedged marks a fetch the controller already acted on (launched a
	// hedge, or found no replica), so the scanner considers each fetch
	// at most once.
	hedged bool
	// hedgeDenied dedupes the budget-denial counter per fetch.
	hedgeDenied bool
	// budgetHeld marks a speculative attempt currently charged against
	// the hedge budget; cleared exactly once via the budget helpers.
	budgetHeld bool
}

// dropAsm gives up the attempt's partial reassembly and returns how many
// bytes it held. Callers hold m.mu.
func (p *pendingFetch) dropAsm() int {
	n := p.got
	if p.asm != nil {
		p.asm.Release()
	}
	p.asm, p.got = nil, 0
	return n
}

// nodeGroup holds the per-remote-node request queue, ordered by arrival
// (Section III-C), plus its in-flight window accounting.
type nodeGroup struct {
	addr      string
	queue     []*pendingFetch
	inflight  int
	inflightG *metrics.Gauge // registry mirror of inflight, labeled by node
	// win is the node pair's AIMD congestion window; nil when flow
	// control is disabled (fixed WindowPerNode). Guarded by m.mu.
	win *flow.Window
	// epoch counts connection generations for this node: it increments
	// each time the node's connection is declared dead, and every failure
	// report carries the epoch it observed. A report whose epoch no
	// longer matches is stale — a concurrent observer (read loop, send
	// path, deadline watchdog) already recycled that connection — and is
	// dropped, so one dead connection can never release in-flight slots
	// twice or tear down its freshly dialed replacement. Guarded by m.mu.
	epoch uint64
	// rtt is the node's rolling RTT window feeding the hedge threshold;
	// nil when hedging is disabled. Guarded by m.mu.
	rtt *flow.RTTRing
}

// acquire charges one request to the group's in-flight window. Together
// with release it is the only place inflight and its gauge move, so the
// two can never drift (the audit point jbsvet's gaugepair check pins).
func (g *nodeGroup) acquire() {
	g.inflight++
	g.inflightG.Add(1)
}

// release returns n in-flight slots to the group's window.
func (g *nodeGroup) release(n int) {
	g.inflight -= n
	g.inflightG.Add(int64(-n))
}

// limit returns the group's current in-flight limit: the AIMD window
// when flow control is on, the fixed configured window otherwise.
func (g *nodeGroup) limit(fixed int) int {
	if g.win != nil {
		return g.win.Limit()
	}
	return fixed
}

// NetMerger is JBS's client component (Section III-C): one per node,
// consolidating the fetch requests of every local ReduceTask. Requests are
// grouped per remote node — one connection per node pair instead of one
// per MOFCopier — ordered by arrival within a group, and injected
// round-robin across groups to balance load and absorb bursts from
// aggressive ReduceTasks.
type NetMerger struct {
	cfg   MergerConfig
	cache *transport.ConnCache

	mu      sync.Mutex
	cond    *sync.Cond
	groups  map[string]*nodeGroup
	ring    []string
	next    int
	pending map[uint64]*pendingFetch
	// parked holds fetches shed by a supplier, waiting out their
	// retry-after backoff before re-queueing. Guarded by m.mu.
	parked map[uint64]*pendingFetch
	nextID uint64
	closed bool

	readers map[string]bool // addr -> reader goroutine running
	reqBuf  []byte          // request marshalling scratch; only injectLoop's send touches it

	wg        sync.WaitGroup
	watchStop chan struct{} // closed by Close; stops the deadline watchdog

	unregister func() // flow registry removal; nil when flow is off

	requests      int64
	bytes         int64
	errCount      int64
	retries       int64
	connsHigh     int64
	sheds         int64
	shedRetries   int64
	corruptFrames int64
	deadlineTrips int64
	rerouted      int64

	// Hedging controller state, guarded by m.mu. hedgeOutstanding and
	// its gauge only move inside the budget helpers, so the pair can
	// never drift. loserIDs remembers cancelled in-flight attempts
	// (id → node address) so their late chunks are counted as duplicate
	// bytes instead of vanishing from the accounting; entries die on
	// the supplier's terminal chunk or the connection's failure.
	hedgeOutstanding int
	loserIDs         map[uint64]string
	hedges           int64
	hedgeWins        int64
	hedgeLosses      int64
	hedgeSheds       int64
	hedgeFails       int64
	hedgeErrors      int64
	hedgeAdoptions   int64
	hedgeDenials     int64
	hedgeDupBytes    int64
}

// NewNetMerger creates the node's consolidated fetch engine.
func NewNetMerger(cfg MergerConfig) (*NetMerger, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	m := &NetMerger{
		cfg:       cfg,
		cache:     transport.NewConnCache(cfg.Transport, cfg.MaxConnections),
		groups:    make(map[string]*nodeGroup),
		pending:   make(map[uint64]*pendingFetch),
		parked:    make(map[uint64]*pendingFetch),
		readers:   make(map[string]bool),
		watchStop: make(chan struct{}),
	}
	m.cond = sync.NewCond(&m.mu)
	if cfg.Flow != nil {
		m.unregister = flow.Register(m)
	}
	if cfg.Hedge != nil {
		m.loserIDs = make(map[uint64]string)
		m.wg.Add(1)
		go m.hedgeLoop()
	}
	m.wg.Add(1)
	go m.injectLoop()
	m.wg.Add(1)
	go m.watchdog()
	return m, nil
}

// FlowState snapshots the merger's control-plane state (per-node AIMD
// windows and shed counters) for the /debug/jbs/flow endpoint.
func (m *NetMerger) FlowState() flow.State {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := flow.State{
		Name: "merger", Sheds: m.sheds, ShedRetries: m.shedRetries,
		Hedges: m.hedges, HedgeWins: m.hedgeWins,
		HedgeDupBytes: m.hedgeDupBytes, HedgeOutstanding: m.hedgeOutstanding,
	}
	for _, addr := range m.ring {
		if g := m.groups[addr]; g.win != nil {
			ws := g.win.State()
			ws.Node = addr
			st.Windows = append(st.Windows, ws)
		}
	}
	return st
}

// Stats snapshots the merger's counters.
func (m *NetMerger) Stats() MergerStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MergerStats{
		Requests:      m.requests,
		BytesFetched:  m.bytes,
		Errors:        m.errCount,
		Retries:       m.retries,
		ConnectionsHi: m.connsHigh,
		Sheds:         m.sheds,
		ShedRetries:   m.shedRetries,
		CorruptFrames: m.corruptFrames,
		DeadlineTrips: m.deadlineTrips,
		Rerouted:      m.rerouted,

		Hedges:         m.hedges,
		HedgeWins:      m.hedgeWins,
		HedgeLosses:    m.hedgeLosses,
		HedgeSheds:     m.hedgeSheds,
		HedgeFails:     m.hedgeFails,
		HedgeErrors:    m.hedgeErrors,
		HedgeAdoptions: m.hedgeAdoptions,
		HedgeDenials:   m.hedgeDenials,
		HedgeDupBytes:  m.hedgeDupBytes,
	}
}

// Close shuts the merger down; outstanding fetches fail.
func (m *NetMerger) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	// A hedged pair holds two attempts for one logical fetch and one
	// buffered result slot; collect with twin dedup so exactly one
	// terminal result is sent per fetch.
	seen := make(map[*pendingFetch]bool)
	var outstanding []*pendingFetch
	collect := func(p *pendingFetch) {
		if seen[p] {
			return
		}
		seen[p] = true
		if p.twin != nil {
			seen[p.twin] = true
		}
		outstanding = append(outstanding, p)
	}
	for id, p := range m.pending {
		delete(m.pending, id)
		collect(p)
	}
	for _, g := range m.groups {
		for _, p := range g.queue {
			collect(p)
		}
		g.queue = nil
	}
	for id, p := range m.parked {
		delete(m.parked, id)
		if p.backoff != nil {
			p.backoff.Stop()
		}
		collect(p)
	}
	// Racing duplicates die with the merger; return their budget slots so
	// the process-wide outstanding gauge reads zero after shutdown.
	for p := range seen {
		m.releaseHedgeBudgetLocked(p)
		p.dropAsm()
	}
	for _, p := range outstanding {
		//jbsvet:ignore lockhygiene result channels are buffered for every outstanding fetch; this send cannot block
		p.result <- fetchResult{spec: p.spec, err: transport.ErrConnClosed}
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	close(m.watchStop)
	if m.unregister != nil {
		m.unregister()
	}
	err := m.cache.Close()
	m.wg.Wait()
	return err
}

// groupForLocked returns (creating if needed) the node group for addr.
// Must be called with m.mu held.
func (m *NetMerger) groupForLocked(addr string) *nodeGroup {
	g, ok := m.groups[addr]
	if !ok {
		g = &nodeGroup{addr: addr, inflightG: inflightGauge(addr)}
		if m.cfg.Flow != nil {
			g.win = flow.NewWindow(*m.cfg.Flow, flow.WindowGauge(addr))
		}
		if m.cfg.Hedge != nil {
			g.rtt = new(flow.RTTRing)
		}
		m.groups[addr] = g
		m.ring = append(m.ring, addr)
		if n := int64(len(m.ring)); n > m.connsHigh {
			m.connsHigh = n
		}
	}
	return g
}

// errNoResolver reports an empty-Addr spec fetched without a Resolver.
var errNoResolver = errors.New("core: fetch spec has no address and the merger has no resolver")

// Fetch retrieves every segment in specs, invoking deliver once per
// segment in completion order. A spec with an empty Addr is resolved
// through cfg.Resolver to the supplier currently owning its shard.
// It is safe for concurrent calls from multiple ReduceTasks; all their
// requests share the consolidated connections and the round-robin
// injector. data is lent: it sits in a pooled buffer that is reused as
// soon as deliver returns, so a deliver that keeps bytes copies them (or
// uses FetchLeases).
func (m *NetMerger) Fetch(specs []FetchSpec, deliver func(FetchSpec, []byte) error) error {
	return m.FetchLeases(specs, func(spec FetchSpec, data []byte, owner *bufpool.Lease) error {
		defer owner.Release()
		return deliver(spec, data)
	})
}

// FetchLeases is Fetch with the hand-over made explicit: deliver owns the
// lease behind data (the reassembly lease, or a one-chunk segment's receive
// lease) and must Release it exactly once, whatever it returns, when nothing
// reads data any more. Segments arriving after deliver failed go unseen.
func (m *NetMerger) FetchLeases(specs []FetchSpec, deliver func(spec FetchSpec, data []byte, owner *bufpool.Lease) error) error {
	if len(specs) == 0 {
		return nil
	}
	results := make(chan fetchResult, len(specs))
	// Resolve empty addresses before taking the lock: the resolver may
	// block on registry I/O. Failures complete immediately as error
	// results (the buffered channel cannot block) so the collection loop
	// below still sees len(specs) of them.
	resolved := specs
	failed := 0
	needResolve := false
	for _, spec := range specs {
		if spec.Addr == "" {
			needResolve = true
			break
		}
	}
	if needResolve {
		// Copy-on-resolve keeps the common static-address path free of
		// the extra slice allocation (the hot-path alloc budget is exact).
		resolved = make([]FetchSpec, 0, len(specs))
		for _, spec := range specs {
			if spec.Addr == "" {
				err := errNoResolver
				if m.cfg.Resolver != nil {
					spec.Addr, err = m.cfg.Resolver(spec)
					if err != nil {
						err = fmt.Errorf("resolve: %w", err)
					} else if spec.Addr == "" {
						err = errors.New("core: resolver returned an empty address")
					}
				}
				if spec.Addr == "" {
					failed++
					mrgFetches.Inc()
					mrgErrors.Inc()
					results <- fetchResult{spec: spec, err: err}
					continue
				}
			}
			resolved = append(resolved, spec)
		}
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return transport.ErrConnClosed
	}
	m.requests += int64(failed)
	m.errCount += int64(failed)
	for _, spec := range resolved {
		m.nextID++
		p := &pendingFetch{id: m.nextID, spec: spec, result: results}
		g := m.groupForLocked(spec.Addr)
		g.queue = append(g.queue, p) // arrival order within the group
		m.requests++
		mrgFetches.Inc()
		tracer.Mark(spec.MapTask, spec.Partition, metrics.StageEnqueued)
	}
	m.cond.Broadcast()
	m.mu.Unlock()

	var firstErr error
	for i := 0; i < len(specs); i++ {
		res := <-results
		if res.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("core: fetch %s/%d from %s: %w",
					res.spec.MapTask, res.spec.Partition, res.spec.Addr, res.err)
			}
			continue
		}
		if firstErr != nil {
			res.lease.Release()
		} else if err := deliver(res.spec, res.data, res.lease); err != nil {
			firstErr = err
		}
	}
	return firstErr
}

// injectLoop is the request injector: it walks the node groups round-robin
// and sends the head request of any group with window room.
func (m *NetMerger) injectLoop() {
	defer m.wg.Done()
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.closed {
			return
		}
		sent := false
		for scanned := 0; scanned < len(m.ring); scanned++ {
			if m.next >= len(m.ring) {
				m.next = 0
			}
			addr := m.ring[m.next]
			m.next++
			g := m.groups[addr]
			if len(g.queue) == 0 || g.inflight >= g.limit(m.cfg.WindowPerNode) {
				continue
			}
			p := g.queue[0]
			g.queue = g.queue[1:]
			g.acquire()
			m.pending[p.id] = p
			m.ensureReader(g)
			// Stamp before the lock drops: once pending holds p, the read
			// loop may touch it, so the stamp must happen-before that.
			p.sentAt = time.Now()
			tracer.Mark(p.spec.MapTask, p.spec.Partition, metrics.StageSent)
			// Send outside the lock: the connection may block.
			m.mu.Unlock()
			err := m.send(addr, p)
			m.mu.Lock()
			if err != nil {
				// Only unwind if p is still ours: a concurrent failConn
				// (read-loop error, deadline trip) may have already removed
				// p from pending, released its slot, and re-queued it —
				// unwinding again would release the slot twice and schedule
				// the fetch twice.
				if _, still := m.pending[p.id]; still {
					delete(m.pending, p.id)
					g.release(1)
					if m.closed {
						return
					}
					m.failOrRetryLocked(g, p, err)
				}
			}
			sent = true
			break // restart the scan after releasing the lock
		}
		if !sent {
			if m.closed {
				return
			}
			m.cond.Wait()
		}
	}
}

// send transmits one fetch request on the (cached) connection to addr. The
// request is encoded into the injector's own scratch (send has no other
// caller; both backends finish with the bytes before Send returns), not a
// pooled lease: the response can overtake Send's return, and a Fetch that
// has returned must not leave a request lease outstanding behind it.
func (m *NetMerger) send(addr string, p *pendingFetch) error {
	conn, err := m.cache.Get(addr)
	if err != nil {
		return err
	}
	req := fetchRequest{
		ID:        p.id,
		Partition: uint32(p.spec.Partition),
		MapTask:   p.spec.MapTask,
	}
	m.reqBuf = appendFetchRequest(m.reqBuf[:0], req)
	if err = conn.Send(m.reqBuf); err != nil {
		// Conn-identity invalidation: if a reader already failed this
		// connection and a fresh one was dialed, don't tear the fresh
		// one down for the old one's error.
		m.cache.InvalidateConn(addr, conn, err)
		return err
	}
	return nil
}

// ensureReader starts the response reader for the group's node once,
// bound to the group's current connection epoch. Must be called with
// m.mu held.
func (m *NetMerger) ensureReader(g *nodeGroup) {
	if m.readers[g.addr] {
		return
	}
	m.readers[g.addr] = true
	m.wg.Add(1)
	go m.readLoop(g.addr, g.epoch)
}

// noteCorrupt counts a frame rejected by the CRC32C checksum. Corruption
// is counted at the point of detection, before the recovery race is
// resolved: the damaged frame is a fact regardless of which observer wins
// the failover.
func (m *NetMerger) noteCorrupt(err error) {
	if !errors.Is(err, ErrCorruptFrame) {
		return
	}
	mrgCorruptFrames.Inc()
	m.mu.Lock()
	m.corruptFrames++
	m.mu.Unlock()
}

// readLoop drains response chunks from one node's connection and completes
// pending fetches. It reads the connection belonging to the given group
// epoch; any failure it reports is dropped as stale once that epoch has
// passed.
func (m *NetMerger) readLoop(addr string, epoch uint64) {
	defer m.wg.Done()
	conn, err := m.cache.Get(addr)
	if err != nil {
		// Dial failure: nothing was cached, so there is no connection to
		// invalidate — only slots to unwind and fetches to retry.
		m.failConn(addr, epoch, nil, err)
		return
	}
	for {
		l, err := transport.RecvBuf(conn)
		if err != nil {
			m.failConn(addr, epoch, conn, err)
			return
		}
		if b := l.Bytes(); len(b) > 0 && (b[0] == msgShed || b[0] == msgCredit) {
			err = m.handleFlowFrame(addr, b)
			l.Release()
			if err != nil {
				m.noteCorrupt(err)
				m.failConn(addr, epoch, conn, err)
				return
			}
			continue
		}
		chunk, err := decodeDataChunk(l.Bytes())
		if err != nil {
			l.Release()
			// A corrupt or malformed frame poisons the stream — framing
			// after it cannot be trusted — so the connection is torn down
			// and every in-flight fetch to this node re-sent on a fresh
			// one: detection at the merger, transparent re-fetch.
			m.noteCorrupt(err)
			m.failConn(addr, epoch, conn, err)
			return
		}
		if chunk.Failed {
			p := m.remoteError(addr, chunk)
			remote := fmt.Errorf("%w: %s", ErrRemote, chunk.Payload)
			l.Release()
			if p != nil {
				p.result <- fetchResult{spec: p.spec, err: remote}
			}
			continue
		}
		m.mu.Lock()
		p, ok := m.pending[chunk.ID]
		if ok && chunk.Sized {
			tracer.Mark(p.spec.MapTask, p.spec.Partition, metrics.StageFirstChunk)
			p.dropAsm() // a sized chunk starts its segment over
			if !chunk.Last {
				// Several chunks are reassembled in one lease of the announced
				// size. A pool miss allocates and clears that much, so it is
				// taken with the lock dropped: the attempt may be retired, or
				// the connection failed over, by the time the lock is back.
				m.mu.Unlock()
				asm := bufpool.Default().Get(int(chunk.Total))
				m.mu.Lock()
				if ok = m.pending[chunk.ID] == p && m.groups[addr].epoch == epoch; ok {
					p.asm = asm
				} else {
					asm.Release()
				}
			}
		}
		if !ok {
			m.lateChunkLocked(addr, chunk)
			m.mu.Unlock()
			l.Release()
			continue
		}
		total := -1 // a chunk with no sized one before it fits nothing
		if p.asm != nil {
			total = p.asm.Len()
		} else if chunk.Sized {
			total = int(chunk.Total)
		}
		dst, off, end := p.asm, p.got, p.got+len(chunk.Payload)
		if end > total || (chunk.Last && end != total) {
			// The stream no longer adds up to the segment it announced:
			// nothing after this frame can be trusted either.
			m.mu.Unlock()
			l.Release()
			m.failConn(addr, epoch, conn, fmt.Errorf("%w: chunk [%d,%d) of a %d-byte segment", ErrBadMessage, off, end, total))
			return
		}
		p.got = end
		if !chunk.Last {
			// The copy runs outside the lock, pinned: a concurrent retire
			// (deadline trip, hedge loss, Close) drops the attempt's own
			// reference and the buffer survives until this one goes.
			dst.Retain()
			m.mu.Unlock()
			copy(dst.Bytes()[off:], chunk.Payload)
			dst.Release()
			l.Release()
			continue
		}
		// Completion: once p leaves pending (and its twin is cut loose)
		// only this goroutine can reach it, so the last copy needs no pin.
		delete(m.pending, chunk.ID)
		p.asm = nil
		g := m.groups[addr]
		g.release(1)
		if g.win != nil {
			g.win.OnClean()
		}
		m.bytes += int64(end)
		mrgBytes.Add(int64(end))
		rtt := time.Since(p.sentAt).Nanoseconds()
		mrgRTT.Observe(rtt)
		if g.rtt != nil {
			g.rtt.Add(rtt)
		}
		if p.isHedge {
			// The speculative attempt delivered — whether it out-raced a
			// live twin or carried the fetch alone after adoption.
			m.hedgeWins++
			mrgHedgeWins.Inc()
			m.releaseHedgeBudgetLocked(p)
		}
		var cancelAddr string
		var cancelID uint64
		if p.twin != nil {
			cancelAddr, cancelID = m.cancelLoserLocked(p.twin)
		}
		tracer.Mark(p.spec.MapTask, p.spec.Partition, metrics.StageDelivered)
		m.cond.Broadcast()
		m.mu.Unlock()
		if cancelAddr != "" {
			m.sendCancel(cancelAddr, cancelID)
		}
		res := fetchResult{spec: p.spec}
		if dst != nil {
			copy(dst.Bytes()[off:], chunk.Payload)
			l.Release()
			res.data, res.lease = dst.Bytes(), dst
		} else {
			// One chunk: handed over in its receive lease, no reassembly. A
			// TCP receive leases the frame's own length, so the lease a
			// reduce task parks weighs what its segment does.
			res.data, res.lease = chunk.Payload, l
		}
		p.result <- res
	}
}

// lateChunkLocked accounts a chunk whose request is no longer pending: it
// failed over already, or is a cancelled hedge loser, whose late chunks are
// the price of the race and land in the duplicate-byte ledger. Holds m.mu.
func (m *NetMerger) lateChunkLocked(addr string, chunk dataChunk) {
	if a, lost := m.loserIDs[chunk.ID]; lost && a == addr {
		m.noteDupBytesLocked(int64(len(chunk.Payload)))
		if chunk.Last || chunk.Failed {
			delete(m.loserIDs, chunk.ID)
		}
	}
}

// remoteError books the error chunk addr's supplier answered a fetch with
// — a definitive per-request answer, never retried — and returns the
// fetch to fail, or nil when nobody waits for this attempt any more.
func (m *NetMerger) remoteError(addr string, chunk dataChunk) *pendingFetch {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.pending[chunk.ID]
	if !ok {
		m.lateChunkLocked(addr, chunk)
		return nil
	}
	delete(m.pending, chunk.ID)
	m.groups[addr].release(1)
	m.cond.Broadcast()
	if p.twin != nil {
		// One attempt of a live hedged pair hit a remote error; the twin
		// still races, so the fetch neither fails nor retries here.
		m.noteHedgeAttemptFailureLocked(p)
		return nil
	}
	p.dropAsm()
	m.errCount++
	mrgErrors.Inc()
	if p.isHedge {
		m.hedgeErrors++
		mrgHedgeErrors.Inc()
	}
	return p
}

// handleFlowFrame processes a SHED or CREDIT control frame from addr.
// A shed parks the named fetch for its jittered retry-after backoff and
// collapses the node's AIMD window; a credit widens it. A malformed
// frame is returned as an error (the caller tears the connection down
// like any other protocol violation).
func (m *NetMerger) handleFlowFrame(addr string, b []byte) error {
	if b[0] == msgCredit {
		n, err := decodeCredit(b)
		if err != nil {
			return err
		}
		m.mu.Lock()
		if g := m.groups[addr]; g != nil && g.win != nil {
			for i := uint32(0); i < n; i++ {
				g.win.OnCredit()
			}
			m.cond.Broadcast() // the wider window may admit queued fetches
		}
		m.mu.Unlock()
		return nil
	}
	id, retryAfter, err := decodeShed(b)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.pending[id]
	if !ok {
		// The fetch already failed over to another attempt — or it is a
		// cancelled hedge loser (tracked in loserIDs until its terminal
		// frame). Either way the frame must not touch any window: the
		// loser's slot was already released, and shrinking the winner
		// node's AIMD window for a race it won would be exactly the
		// foreign-shed drift the owner guard below exists to stop.
		return nil
	}
	if p.spec.Addr != addr {
		// A supplier may only shed fetches it owns. Honoring a
		// cross-node shed would decrement this node's inflight for a
		// slot it never held (permanent window drift) while leaking the
		// real owner's slot. Drop the frame; the owner's fetch runs its
		// course. Hedge attempts carry their own distinct ids with the
		// replica's address in spec.Addr, so the guard holds per
		// attempt: a replica can only shed the attempt it serves, never
		// its twin on the primary.
		return nil
	}
	delete(m.pending, id)
	p.dropAsm()
	g := m.groups[addr]
	g.release(1)
	if g.win != nil {
		// The shedding node is genuinely overloaded; its own window
		// collapses. The twin's node (if any) is untouched — the frame
		// says nothing about that node's health.
		g.win.OnShed()
	}
	if p.twin != nil {
		// An attempt of a live hedged pair never parks on a shed: the
		// twin already races the same bytes, so re-sending this attempt
		// later would only add load to an overloaded node. Cancel it;
		// the twin carries the fetch alone. Not counted in Sheds — the
		// shed/retry conservation law (Sheds == ShedRetries at drain)
		// only covers parked-and-retried sheds.
		if p.isHedge {
			m.hedgeSheds++
			mrgHedgeSheds.Inc()
			m.releaseHedgeBudgetLocked(p)
			m.unlinkTwinLocked(p)
		} else {
			m.hedgeAdoptions++
			mrgHedgeAdoptions.Inc()
			m.releaseHedgeBudgetLocked(p.twin)
			m.unlinkTwinLocked(p)
		}
		m.cond.Broadcast()
		return nil
	}
	m.sheds++
	mrgSheds.Inc()
	m.cond.Broadcast() // the freed slot may admit a queued fetch now
	// Park the fetch for the supplier's hint plus up to 50% jitter, so a
	// burst of sheds does not re-converge into a synchronized retry storm.
	// A shed consumes no retry budget: the request was never serviced,
	// and the AIMD collapse plus backoff bounds the re-send rate.
	m.parkLocked(p, retryAfter+rand.N(retryAfter/2+1), true)
	return nil
}

// parkLocked holds a fetch out of its queue for delay before re-queueing
// it. shed marks a supplier-shed park (counted as a shed retry on unpark)
// versus a failure-backoff park. Must be called with m.mu held.
func (m *NetMerger) parkLocked(p *pendingFetch, delay time.Duration, shed bool) {
	p.shedPark = shed
	m.parked[p.id] = p
	id := p.id
	p.backoff = time.AfterFunc(delay, func() { m.unpark(id) })
}

// unpark re-queues a parked fetch at the head of its node group after its
// backoff elapses. With a Resolver configured the fetch's owner is
// re-resolved first — a shed from a draining supplier or a failure
// backoff from a dead one lands here, and by now the registry may have
// handed the shard to a peer; following the move is what makes drain
// lossless. Runs on the backoff timer's goroutine.
func (m *NetMerger) unpark(id uint64) {
	m.mu.Lock()
	p, ok := m.parked[id]
	if !ok || m.closed {
		m.mu.Unlock()
		return // Close already failed it
	}
	addr := p.spec.Addr
	if !p.shedPark && m.cfg.Replicas != nil {
		// Failure-backoff park with a replica set available: rotate to
		// the next replica instead of re-probing the address that just
		// failed, so a dead or blacked-out primary costs one attempt,
		// not the whole retry budget. Shed parks stay put — a shed is
		// load, not death, and the retry-after hint belongs to the node
		// that issued it. Resolve outside the lock (registry I/O may
		// block); p stays in parked meanwhile — recheck below.
		spec := p.spec
		m.mu.Unlock()
		addr = nextReplica(m.cfg.Replicas(spec), spec.Addr)
		m.mu.Lock()
		p, ok = m.parked[id]
		if !ok || m.closed {
			m.mu.Unlock()
			return
		}
	} else if m.cfg.Resolver != nil {
		// Resolve outside the lock (registry I/O may block); p stays in
		// parked meanwhile, so only Close can touch it — recheck below.
		spec := p.spec
		m.mu.Unlock()
		if a, err := m.cfg.Resolver(spec); err == nil && a != "" {
			addr = a
		}
		m.mu.Lock()
		p, ok = m.parked[id]
		if !ok || m.closed {
			m.mu.Unlock()
			return
		}
	}
	delete(m.parked, id)
	p.backoff = nil
	if addr != p.spec.Addr {
		p.spec.Addr = addr
		m.rerouted++
		mrgRerouted.Inc()
	}
	g := m.groupForLocked(addr)
	g.queue = append([]*pendingFetch{p}, g.queue...)
	if p.shedPark {
		m.shedRetries++
		mrgShedRetries.Inc()
	}
	m.cond.Broadcast()
	m.mu.Unlock()
}

// maxRetryBackoff caps the exponential retry delay.
const maxRetryBackoff = 500 * time.Millisecond

// failOrRetryLocked either parks a failed request for a jittered
// exponential backoff — after which it re-queues at the head of its node
// group and is re-sent on a freshly dialed connection — or, once its
// retry budget is spent, surfaces the error. Must be called with m.mu
// held.
func (m *NetMerger) failOrRetryLocked(g *nodeGroup, p *pendingFetch, err error) {
	if p.twin != nil {
		// One attempt of a live hedged pair died (connection failure,
		// deadline trip, failed send). The twin still races the same
		// bytes, so this attempt is cancelled quietly: no retry budget
		// burned, no error surfaced. If the twin dies too it inherits
		// the full retry semantics alone.
		m.noteHedgeAttemptFailureLocked(p)
		return
	}
	p.attempts++
	p.dropAsm() // partial chunks from the dead connection
	if g != nil && p.attempts <= m.cfg.MaxRetries {
		m.retries++
		mrgRetries.Inc()
		// Exponential, capped, jittered: a refused node is probed at a
		// gentle rate instead of burning the retry budget in a tight
		// dial-fail loop, and concurrent failures fan out rather than
		// re-converging into a synchronized storm.
		delay := m.cfg.RetryBackoff << min(p.attempts-1, 8)
		if delay > maxRetryBackoff {
			delay = maxRetryBackoff
		}
		m.parkLocked(p, delay+rand.N(delay/2+1), false)
		return
	}
	m.errCount++
	mrgErrors.Inc()
	if p.isHedge {
		// An adopted speculative attempt exhausted the budget it
		// inherited: its terminal state for the hedge conservation law.
		m.hedgeErrors++
		mrgHedgeErrors.Inc()
	}
	p.result <- fetchResult{spec: p.spec, err: err}
}

// errFetchStalled is the failure the deadline watchdog assigns to a
// connection whose oldest in-flight fetch exceeded FetchTimeout.
var errFetchStalled = errors.New("core: fetch deadline exceeded (stalled connection)")

// failConn handles a dead (or stalled) connection to addr, observed under
// the given group epoch: every in-flight request to that node is re-queued
// for a fresh connection (up to its retry budget) or failed. If the
// epoch has already passed — another observer recycled the connection
// first — the report is stale and dropped, so slots are never released
// twice. conn, when non-nil, is the connection the caller observed
// failing; invalidation is conn-identity-guarded so a stale report cannot
// tear down a fresh replacement.
func (m *NetMerger) failConn(addr string, epoch uint64, conn transport.Conn, err error) {
	// Invalidate before unwinding so the retried fetches dial fresh.
	// Transient (backpressure) conditions never invalidate — a shed peer
	// is healthy (see ConnCache).
	if conn != nil {
		m.cache.InvalidateConn(addr, conn, err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	g := m.groups[addr]
	if g == nil || g.epoch != epoch {
		return // stale: this connection generation was already recycled
	}
	g.epoch++
	m.readers[addr] = false
	// Cancelled losers on this connection can send no more late chunks;
	// drop their duplicate-byte tracking entries.
	for id, a := range m.loserIDs {
		if a == addr {
			delete(m.loserIDs, id)
		}
	}
	var interrupted []*pendingFetch
	for id, p := range m.pending {
		if p.spec.Addr == addr {
			delete(m.pending, id)
			interrupted = append(interrupted, p)
		}
	}
	g.release(len(interrupted))
	if g.win != nil && len(interrupted) > 0 {
		g.win.OnTimeout()
	}
	m.cond.Broadcast()
	if m.closed {
		return
	}
	for _, p := range interrupted {
		m.failOrRetryLocked(g, p, err)
	}
}

// watchdog is the per-fetch deadline enforcer: a stalled connection — the
// peer accepted requests but never responds — surfaces no transport error,
// so without it a fetch would hang forever. The watchdog periodically
// scans in-flight fetches and fails over any connection whose oldest
// fetch has been waiting longer than FetchTimeout; the interrupted
// fetches re-enter the retry path like any other connection failure.
func (m *NetMerger) watchdog() {
	defer m.wg.Done()
	period := m.cfg.FetchTimeout / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-m.watchStop:
			return
		case <-ticker.C:
		}
		type stalledConn struct {
			addr  string
			epoch uint64
		}
		var stalled []stalledConn
		now := time.Now()
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return
		}
		seen := make(map[string]bool)
		for _, p := range m.pending {
			if now.Sub(p.sentAt) < m.cfg.FetchTimeout || seen[p.spec.Addr] {
				continue
			}
			seen[p.spec.Addr] = true
			if g := m.groups[p.spec.Addr]; g != nil {
				stalled = append(stalled, stalledConn{p.spec.Addr, g.epoch})
				// Count the trip at detection, like corrupt frames: tearing
				// the conn down below wakes its blocked reader, whose own
				// failConn may win the epoch race — the deadline violation
				// is a fact regardless of which observer runs the failover.
				m.deadlineTrips++
				mrgDeadlineTrips.Inc()
			}
		}
		m.mu.Unlock()
		for _, s := range stalled {
			// Peek, don't Get: a missing cache entry means the connection
			// is already closed (invalidation and eviction both close), so
			// there is nothing to tear down — only slots to unwind.
			conn, _ := m.cache.Peek(s.addr)
			m.failConn(s.addr, s.epoch, conn, errFetchStalled)
		}
	}
}

// --- Hedging controller (speculative replica fetching) ---
//
// A fetch that outlives its node's quantile-derived latency threshold is
// raced against a replica supplier: a duplicate request with its own id
// goes to the first distinct address in the replica set, the first
// CRC-clean response wins, and the loser is cancelled — removed from
// every queue and map, its inflight slot released exactly once, no AIMD
// signal fired (a decided race says nothing about congestion), and a
// best-effort CANCEL frame sent so the supplier stops transmitting. A
// budget caps concurrently racing duplicates; at the cap hedging
// degrades to the plain retry/watchdog path instead of amplifying an
// overload.

// hedgeCandidate is one fetch the scanner decided to hedge, captured
// under the lock so the replica resolution can happen outside it.
type hedgeCandidate struct {
	id   uint64
	spec FetchSpec
}

// hedgeLoop drives the controller: a periodic scan of in-flight fetches
// instead of a per-fetch timer, so an armed-but-never-tripped hedge
// costs the hot path nothing (no timer allocation, no extra goroutine
// per fetch) at the price of up to one ScanInterval of firing slack.
func (m *NetMerger) hedgeLoop() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.Hedge.ScanInterval)
	defer ticker.Stop()
	for {
		select {
		case <-m.watchStop:
			return
		case <-ticker.C:
		}
		for _, c := range m.hedgeCandidates() {
			m.launchHedge(c.id, c.spec)
		}
	}
}

// hedgeCandidates scans in-flight fetches for ones past their node's
// hedge threshold with budget room, at most one hedge per fetch ever.
func (m *NetMerger) hedgeCandidates() []hedgeCandidate {
	now := time.Now()
	var cands []hedgeCandidate
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	free := m.cfg.Hedge.MaxOutstanding - m.hedgeOutstanding
	for _, p := range m.pending {
		if p.twin != nil || p.hedged {
			continue // already raced (or racing)
		}
		g := m.groups[p.spec.Addr]
		if g == nil {
			continue
		}
		thr := m.cfg.Hedge.Threshold(g.rtt)
		if thr <= 0 || now.Sub(p.sentAt) < thr {
			continue
		}
		if len(cands) >= free {
			// Budget exhausted: leave the fetch unhedged — the retry
			// backoff and deadline watchdog still cover it — and count
			// the denial once per fetch.
			if !p.hedgeDenied {
				p.hedgeDenied = true
				m.hedgeDenials++
				mrgHedgeDenials.Inc()
			}
			continue
		}
		cands = append(cands, hedgeCandidate{p.id, p.spec})
	}
	return cands
}

// launchHedge races a duplicate of fetch id against the first distinct
// replica. Replica resolution happens outside the lock (the callback
// may block on registry I/O), so the fetch is re-checked after
// re-locking: it may have completed, failed over, or been hedged by a
// shed/retry path meanwhile.
func (m *NetMerger) launchHedge(id uint64, spec FetchSpec) {
	var target string
	for _, a := range m.cfg.Replicas(spec) {
		if a != "" && a != spec.Addr {
			target = a
			break
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.pending[id]
	if !ok || m.closed || p.twin != nil || p.hedged {
		return
	}
	if target == "" {
		// No distinct replica to race. Mark the fetch so the scanner
		// stops re-resolving it every tick; the watchdog remains its
		// backstop.
		p.hedged = true
		mrgHedgeNoReplica.Inc()
		return
	}
	if m.hedgeOutstanding >= m.cfg.Hedge.MaxOutstanding {
		if !p.hedgeDenied {
			p.hedgeDenied = true
			m.hedgeDenials++
			mrgHedgeDenials.Inc()
		}
		return
	}
	m.nextID++
	h := &pendingFetch{
		id:     m.nextID,
		spec:   FetchSpec{Addr: target, MapTask: spec.MapTask, Partition: spec.Partition},
		result: p.result,
		// The pair shares one retry budget: hedging trades duplicate
		// bytes for tail latency, not doubled failure tolerance.
		attempts: p.attempts,
		isHedge:  true,
		hedged:   true,
		twin:     p,
	}
	p.hedged = true
	p.twin = h
	m.acquireHedgeBudgetLocked(h)
	m.hedges++
	mrgHedges.Inc()
	g := m.groupForLocked(target)
	// Head of the replica's queue: the pair is already past its
	// threshold, so every request ahead of it would add straggler
	// latency to a fetch that is late by definition.
	g.queue = append(g.queue, nil)
	copy(g.queue[1:], g.queue)
	g.queue[0] = h
	m.cond.Broadcast()
}

// cancelLoserLocked withdraws the losing attempt of a hedged pair after
// its twin delivered. The loser may be anywhere in its lifecycle:
// in-flight (remove from pending, release its node's slot, remember its
// id so late chunks land in the duplicate-byte ledger, and tell its
// supplier to stop), queued (remove; it holds no slot yet), or — only
// possible transiently — parked. No AIMD signal fires: a decided race
// says nothing about either node's congestion. Returns the address and
// id for a best-effort CANCEL frame when the loser's request may be on
// the wire. Must be called with m.mu held.
func (m *NetMerger) cancelLoserLocked(t *pendingFetch) (cancelAddr string, cancelID uint64) {
	m.unlinkTwinLocked(t)
	if t.isHedge {
		m.hedgeLosses++
		mrgHedgeLosses.Inc()
		m.releaseHedgeBudgetLocked(t)
	}
	if _, ok := m.pending[t.id]; ok {
		delete(m.pending, t.id)
		g := m.groups[t.spec.Addr]
		g.release(1)
		m.noteDupBytesLocked(int64(t.dropAsm()))
		if m.loserIDs != nil {
			m.loserIDs[t.id] = t.spec.Addr
		}
		m.cond.Broadcast() // the freed slot may admit a queued fetch
		return t.spec.Addr, t.id
	}
	if _, ok := m.parked[t.id]; ok {
		delete(m.parked, t.id)
		if t.backoff != nil {
			t.backoff.Stop()
		}
		return "", 0
	}
	if g := m.groups[t.spec.Addr]; g != nil {
		for i, q := range g.queue {
			if q == t {
				g.queue = append(g.queue[:i], g.queue[i+1:]...)
				break
			}
		}
	}
	return "", 0
}

// noteHedgeAttemptFailureLocked records the death of one attempt of a
// live hedged pair (remote error, connection failure, deadline trip,
// shed-free failed send). The caller has already removed the attempt
// from pending and released its slot; here it is unlinked so the twin
// carries the fetch alone with full retry semantics. Must be called
// with m.mu held.
func (m *NetMerger) noteHedgeAttemptFailureLocked(p *pendingFetch) {
	if p.isHedge {
		m.hedgeFails++
		mrgHedgeFails.Inc()
		m.releaseHedgeBudgetLocked(p)
	} else {
		// The original died; the speculative attempt adopts the fetch.
		// Its budget slot frees now — an adopted attempt is the only
		// copy racing, not a duplicate.
		m.hedgeAdoptions++
		mrgHedgeAdoptions.Inc()
		m.releaseHedgeBudgetLocked(p.twin)
	}
	m.noteDupBytesLocked(int64(p.dropAsm()))
	m.unlinkTwinLocked(p)
}

// unlinkTwinLocked severs a hedged pair symmetrically. Must be called
// with m.mu held.
func (m *NetMerger) unlinkTwinLocked(p *pendingFetch) {
	if p.twin != nil {
		p.twin.twin = nil
		p.twin = nil
	}
}

// acquireHedgeBudgetLocked charges one racing duplicate to the hedge
// budget. With releaseHedgeBudgetLocked it is the only place
// hedgeOutstanding and its gauge move, so the two can never drift.
// Must be called with m.mu held.
func (m *NetMerger) acquireHedgeBudgetLocked(h *pendingFetch) {
	h.budgetHeld = true
	m.hedgeOutstanding++
	mrgHedgeOutstanding.Add(1)
}

// releaseHedgeBudgetLocked returns a speculative attempt's budget slot
// on its terminal transition (win, loss, shed, failure, adoption);
// budgetHeld makes the release idempotent. Must be called with m.mu
// held.
func (m *NetMerger) releaseHedgeBudgetLocked(h *pendingFetch) {
	if h != nil && h.budgetHeld {
		h.budgetHeld = false
		m.hedgeOutstanding--
		mrgHedgeOutstanding.Add(-1)
	}
}

// noteDupBytesLocked adds n payload bytes to the duplicate-byte ledger:
// data received for an attempt that had already lost its race. Must be
// called with m.mu held.
func (m *NetMerger) noteDupBytesLocked(n int64) {
	if n > 0 {
		m.hedgeDupBytes += n
		mrgHedgeDupBytes.Add(n)
	}
}

// sendCancel tells addr's supplier, best-effort, to stop serving fetch
// id: the race is decided and every further chunk is a wasted
// duplicate byte. Peek, don't Get — a missing cached connection means
// nothing is in flight to cancel. A send failure is ignored: the frame
// is advisory, and connection health belongs to the normal
// invalidation paths.
func (m *NetMerger) sendCancel(addr string, id uint64) {
	conn, ok := m.cache.Peek(addr)
	if !ok || conn == nil {
		return
	}
	l := bufpool.Default().Get(cancelFrameLen)
	//jbsvet:ignore errcheck best-effort advisory frame; the reader owns this connection's failure handling
	_ = conn.Send(appendCancel(l.Bytes()[:0], id))
	l.Release()
}

// nextReplica returns the replica after cur in the set (wrapping), cur
// itself when it is absent or alone, and "" only for an empty set whose
// caller keeps its current address.
func nextReplica(replicas []string, cur string) string {
	for i, a := range replicas {
		if a == cur {
			return replicas[(i+1)%len(replicas)]
		}
	}
	if len(replicas) > 0 && replicas[0] != "" {
		return replicas[0]
	}
	return cur
}
