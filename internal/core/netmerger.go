package core

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
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

// The merger's constants.
const (
	// maxConnections caps the connection cache (512 in the paper,
	// Section IV-A).
	maxConnections = 512
	// hedgeScanInterval is the scan tick while hedging is on. One
	// millisecond bounds the firing slack without measurable CPU cost
	// (the scan is one walk of the live attempts under the merger lock).
	hedgeScanInterval = time.Millisecond
	// maxHedgesOutstanding caps concurrently racing duplicates. Past the
	// cap hedging degrades to the plain retry/deadline path instead of
	// amplifying an overload.
	maxHedgesOutstanding = 4
)

func (c *MergerConfig) applyDefaults() error {
	if c.Transport == nil {
		return errors.New("core: merger needs a transport")
	}
	// Every numeric knob follows one rule: zero means default, negative is
	// rejected by name.
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
	if c.WindowPerNode == 0 {
		c.WindowPerNode = 4
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

// attemptState is where one fetch attempt is in its lifecycle. The
// transitions, and what each settles, are the table in
// docs/ARCHITECTURE.md ("Life of a segment fetch"); retireLocked is the
// only way out of queued, inFlight or parked.
type attemptState uint8

const (
	queued   attemptState = iota // in its node group's queue, no slot held
	inFlight                     // holds a window slot; its request is (about to be) on the wire
	parked                       // waiting out a shed or retry backoff
	lost                         // cancelled loser of a hedged race whose request was on the wire
	done                         // retired; no map or queue reaches it any more
)

// outcome is the event that retires an attempt.
type outcome uint8

const (
	onDeliver     outcome = iota // its last chunk arrived
	onRemoteError                // its supplier answered with an error chunk
	onShed                       // its supplier shed it
	onConnFail                   // its connection failed, stalled or refused the send
	onTwinWon                    // the other attempt of its hedged pair delivered
	onClose                      // the merger closed
)

// pendingFetch is one attempt at a fetch. Every field is guarded by m.mu,
// except asm's bytes (see readLoop). The one-byte fields share the last
// word: one is allocated per fetch.
type pendingFetch struct {
	id   uint64
	spec FetchSpec
	// g is spec.Addr's node group: the queue or window that holds the
	// attempt, and the connection its frames arrive on.
	g *nodeGroup
	// asm is this attempt's reassembly lease, sized by the segment's first
	// chunk; got is how much of it the chunks so far claim. The connection's
	// reader, the bytes' only writer, copies outside the lock under a Retain
	// of its own, so whoever retires the attempt may drop asm at once.
	asm      *bufpool.Lease
	got      int
	attempts int
	result   chan<- fetchResult
	// sentAt anchors the RTT histogram, the deadline and the hedge
	// threshold; it is stamped under m.mu just before injection.
	sentAt time.Time
	// backoff is the parked attempt's unpark timer.
	backoff *time.Timer
	// twin links the two attempts of a hedged pair symmetrically; nil means
	// the attempt races alone. Exactly one attempt of a pair sends on
	// result.
	twin *pendingFetch

	state attemptState
	// shedPark tells a shed park (counted as a shed retry on unpark,
	// re-resolved) from a failure backoff (counted as a retry when parked,
	// rotated to the next replica).
	shedPark bool
	// isHedge marks the speculative attempt of a pair; hedged marks a
	// fetch the controller already acted on; hedgeDenied dedupes the
	// budget denial counter.
	isHedge     bool
	hedged      bool
	hedgeDenied bool
}

// dropAsm gives up the attempt's partial reassembly and returns how many
// bytes it held. Callers hold m.mu.
func (p *pendingFetch) dropAsm() int64 {
	n := p.got
	if p.asm != nil {
		p.asm.Release()
	}
	p.asm, p.got = nil, 0
	return int64(n)
}

// nodeGroup holds the per-remote-node request queue, ordered by arrival
// (Section III-C), plus its in-flight window accounting. Guarded by m.mu.
type nodeGroup struct {
	addr string
	// queue may hold attempts retired while queued (a hedge pair's loser);
	// the injector skips anything not in state queued.
	queue    []*pendingFetch
	inflight metrics.Mirror // requests in flight, mirrored into the node's gauge
	// win is the node pair's AIMD congestion window; nil when flow
	// control is disabled (fixed WindowPerNode).
	win *flow.Window
	// epoch counts connection generations for this node: it increments
	// each time the node's connection is declared dead, and every failure
	// report carries the epoch it observed. A report whose epoch no
	// longer matches is stale — a concurrent observer (read loop, send
	// path, deadline scan) already recycled that connection — and is
	// dropped, so one dead connection never fails its attempts twice or
	// tears down its freshly dialed replacement.
	epoch uint64
	// reading is set while a reader goroutine serves the current epoch.
	reading bool
	// rtt is the node's rolling RTT window feeding the hedge threshold;
	// nil when hedging is disabled.
	rtt *flow.RTTRing
}

// acquire charges one request to the group's in-flight window.
func (g *nodeGroup) acquire() { g.inflight.Add(1) }

// release returns one in-flight slot to the group's window.
func (g *nodeGroup) release() { g.inflight.Add(-1) }

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

	mu     sync.Mutex
	cond   *sync.Cond
	groups map[string]*nodeGroup
	ring   []*nodeGroup // injection order
	next   int
	// live holds every attempt not yet done, by request id.
	live   map[uint64]*pendingFetch
	nextID uint64
	closed bool
	stats  MergerStats
	// hedgeOutstanding counts linked hedged pairs: a duplicate is charged
	// to the budget exactly while its pair is linked.
	hedgeOutstanding int

	reqBuf []byte // request marshalling scratch; only injectLoop's send touches it

	wg         sync.WaitGroup
	stop       chan struct{} // closed by Close; stops the scan loop
	unregister func()        // flow registry removal; nil when flow is off
}

// NewNetMerger creates the node's consolidated fetch engine.
func NewNetMerger(cfg MergerConfig) (*NetMerger, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	m := &NetMerger{
		cfg:    cfg,
		cache:  transport.NewConnCache(cfg.Transport, maxConnections),
		groups: make(map[string]*nodeGroup),
		live:   make(map[uint64]*pendingFetch),
		stop:   make(chan struct{}),
	}
	m.cond = sync.NewCond(&m.mu)
	if cfg.Flow != nil {
		m.unregister = flow.Register(m)
	}
	m.wg.Add(2)
	go m.injectLoop()
	go m.scanLoop()
	return m, nil
}

// FlowState snapshots the merger's control-plane state (per-node AIMD
// windows and shed counters) for the /debug/jbs/flow endpoint.
func (m *NetMerger) FlowState() flow.State {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := flow.State{
		Name: "merger", Sheds: m.stats.Sheds, ShedRetries: m.stats.ShedRetries,
		Hedges: m.stats.Hedges, HedgeWins: m.stats.HedgeWins,
		HedgeDupBytes: m.stats.HedgeDupBytes, HedgeOutstanding: m.hedgeOutstanding,
	}
	for _, g := range m.ring {
		if g.win != nil {
			ws := g.win.State()
			ws.Node = g.addr
			st.Windows = append(st.Windows, ws)
		}
	}
	return st
}

// Stats snapshots the merger's counters.
func (m *NetMerger) Stats() MergerStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// bump adds one to a MergerStats field and to its process-wide metric.
func bump(n *int64, c *metrics.Counter) {
	*n++
	c.Inc()
}

// Close shuts the merger down; outstanding fetches fail.
func (m *NetMerger) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	for _, p := range m.live {
		m.retireLocked(p, onClose, transport.ErrConnClosed, 0)
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	close(m.stop)
	if m.unregister != nil {
		m.unregister()
	}
	err := m.cache.Close()
	m.wg.Wait()
	return err
}

// enqueueLocked makes p a queued attempt of its address's node group: at
// the tail in arrival order, or at the head (a retry or a hedge is late
// already). Must be called with m.mu held.
func (m *NetMerger) enqueueLocked(p *pendingFetch, head bool) {
	g, ok := m.groups[p.spec.Addr]
	if !ok {
		g = &nodeGroup{addr: p.spec.Addr, inflight: metrics.NewMirror(inflightGauge(p.spec.Addr))}
		if m.cfg.Flow != nil {
			g.win = flow.NewWindow(*m.cfg.Flow, flow.WindowGauge(g.addr))
		}
		if m.cfg.Hedge != nil {
			g.rtt = new(flow.RTTRing)
		}
		m.groups[g.addr] = g
		m.ring = append(m.ring, g)
		m.stats.ConnectionsHi = max(m.stats.ConnectionsHi, int64(len(m.ring)))
	}
	p.g, p.state = g, queued
	m.live[p.id] = p
	if head {
		g.queue = slices.Insert(g.queue, 0, p)
	} else {
		g.queue = append(g.queue, p)
	}
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
	if slices.ContainsFunc(specs, func(s FetchSpec) bool { return s.Addr == "" }) {
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
	m.stats.Requests += int64(failed)
	m.stats.Errors += int64(failed)
	for _, spec := range resolved {
		m.nextID++
		m.enqueueLocked(&pendingFetch{id: m.nextID, spec: spec, result: results}, false)
		m.stats.Requests++
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
	for !m.closed {
		var g *nodeGroup
		for range len(m.ring) {
			m.next %= len(m.ring)
			c := m.ring[m.next]
			m.next++
			if c.inflight.Load() >= int64(c.limit(m.cfg.WindowPerNode)) {
				continue
			}
			for len(c.queue) > 0 && c.queue[0].state != queued {
				c.queue = c.queue[1:] // retired while queued
			}
			if len(c.queue) > 0 {
				g = c
				break
			}
		}
		if g == nil {
			m.cond.Wait()
			continue
		}
		p := g.queue[0]
		g.queue = g.queue[1:]
		g.acquire()
		p.state = inFlight
		if !g.reading {
			g.reading = true
			m.wg.Add(1)
			go m.readLoop(g, g.epoch)
		}
		// Stamp before the lock drops: once p is in flight, the read loop
		// may touch it, so the stamp must happen-before that.
		p.sentAt = time.Now()
		tracer.Mark(p.spec.MapTask, p.spec.Partition, metrics.StageSent)
		// Send outside the lock: the connection may block.
		m.mu.Unlock()
		err := m.send(g.addr, p)
		m.mu.Lock()
		// A concurrent failConn (read-loop error, deadline trip) or Close
		// may have retired p already.
		if err != nil && p.state == inFlight {
			m.retireLocked(p, onConnFail, err, 0)
		}
	}
}

// send transmits one fetch request on the (cached) connection to addr. The
// request is encoded into the injector's own scratch (send has no other
// caller; the transport is done with the bytes before Send returns), not a
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

// noteCorrupt counts a frame rejected by the CRC32C checksum. Corruption
// is counted at the point of detection, before the recovery race is
// resolved: the damaged frame is a fact regardless of which observer wins
// the failover.
func (m *NetMerger) noteCorrupt(err error) {
	if errors.Is(err, ErrCorruptFrame) {
		m.mu.Lock()
		bump(&m.stats.CorruptFrames, mrgCorruptFrames)
		m.mu.Unlock()
	}
}

// readLoop drains response frames from one node's connection of the given
// epoch until the connection fails (a dial failure leaves no connection to
// invalidate); the failure is dropped as stale once that epoch has passed.
func (m *NetMerger) readLoop(g *nodeGroup, epoch uint64) {
	defer m.wg.Done()
	conn, err := m.cache.Get(g.addr)
	for err == nil {
		var l *bufpool.Lease
		if l, err = transport.RecvBuf(conn); err == nil {
			err = m.onFrame(g, epoch, l)
		}
	}
	m.noteCorrupt(err)
	m.failConn(g, epoch, conn, err)
}

// onFrame handles one frame from g's connection of the given epoch and
// gives up l: to the segment it completes, or to the pool. An error ends
// the connection — a corrupt or malformed frame poisons the stream, since
// framing after it cannot be trusted, so every fetch in flight to the node
// is re-sent on a fresh one: detection at the merger, transparent re-fetch.
func (m *NetMerger) onFrame(g *nodeGroup, epoch uint64, l *bufpool.Lease) error {
	if b := l.Bytes(); len(b) > 0 && (b[0] == msgShed || b[0] == msgCredit) {
		err := m.handleFlowFrame(g.addr, b)
		l.Release()
		return err
	}
	chunk, err := decodeDataChunk(l.Bytes())
	if err != nil {
		l.Release()
		return err
	}
	m.mu.Lock()
	p := m.attemptLocked(g, &chunk)
	if p != nil && chunk.Failed {
		// A definitive per-request answer, never retried. The error copies
		// the payload, so l goes back before the retire wakes Fetch: a
		// Fetch that has returned leaves no lease behind.
		err := fmt.Errorf("%w: %s", ErrRemote, chunk.Payload)
		l.Release()
		m.retireLocked(p, onRemoteError, err, 0)
		m.mu.Unlock()
		return nil
	}
	if p != nil && chunk.Sized {
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
			if p.state == inFlight && g.epoch == epoch {
				p.asm = asm
			} else {
				asm.Release()
				p = nil
			}
		}
	}
	if p == nil {
		m.mu.Unlock()
		l.Release()
		return nil
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
		return fmt.Errorf("%w: chunk [%d,%d) of a %d-byte segment", ErrBadMessage, off, end, total)
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
		return nil
	}
	// Completion: once p is retired (and its twin cut loose) only this
	// goroutine can reach it, so the last copy needs no pin.
	p.asm, p.got = nil, 0
	t := p.twin
	m.retireLocked(p, onDeliver, nil, 0)
	cancel := t != nil && t.state == lost
	m.stats.BytesFetched += int64(end)
	mrgBytes.Add(int64(end))
	rtt := time.Since(p.sentAt).Nanoseconds()
	mrgRTT.Observe(rtt)
	if g.rtt != nil {
		g.rtt.Add(rtt)
	}
	tracer.Mark(p.spec.MapTask, p.spec.Partition, metrics.StageDelivered)
	m.mu.Unlock()
	if cancel {
		m.sendCancel(t.g.addr, t.id)
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
	return nil
}

// attemptLocked returns the in-flight attempt on g that a data or error
// chunk names, or nil. A chunk for a cancelled hedge loser is the price of
// the race and lands in the duplicate-byte ledger; the loser is done on
// its supplier's terminal chunk. Anything else is late and dropped. Must
// be called with m.mu held.
func (m *NetMerger) attemptLocked(g *nodeGroup, c *dataChunk) *pendingFetch {
	p := m.live[c.ID]
	if p == nil || p.g != g {
		return nil
	}
	if p.state == lost {
		m.noteDupBytesLocked(int64(len(c.Payload)))
		if c.Last || c.Failed {
			p.state = done
			delete(m.live, p.id)
		}
	}
	if p.state != inFlight {
		return nil
	}
	return p
}

// handleFlowFrame processes a SHED or CREDIT control frame from addr.
// A shed retires the named attempt (the node's AIMD window collapses); a
// credit widens the window. A malformed frame is returned as an error
// (the caller tears the connection down like any other protocol
// violation).
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
	// A supplier may only shed attempts in flight to it. Honoring any
	// other shed would release a slot this node never held (permanent
	// window drift) while leaking the real owner's, or shrink a window
	// for a race its node already won (a cancelled loser). A hedge carries
	// its own id with the replica's address, so a replica can only shed
	// the attempt it serves, never its twin on the primary.
	if p := m.live[id]; p != nil && p.state == inFlight && p.g.addr == addr {
		m.retireLocked(p, onShed, nil, retryAfter)
	}
	return nil
}

// maxRetryBackoff caps the exponential retry delay.
const maxRetryBackoff = 500 * time.Millisecond

// retireLocked moves attempt p out of its state on event o and settles,
// here and nowhere else, everything the attempt held:
//   - its window slot, if it was in flight;
//   - its reassembly lease (bytes of a race's loser are duplicates);
//   - the AIMD signal: OnClean on delivery, OnShed on a shed (failConn
//     sends OnTimeout once per failed connection);
//   - its hedged pair and the pair's budget slot;
//   - then what follows: a result on p.result, a park, or nothing (its
//     twin carries the fetch, or the reader hands the delivery over).
//
// err is the failure to surface; after is a shed's retry-after hint. Must
// be called with m.mu held.
func (m *NetMerger) retireLocked(p *pendingFetch, o outcome, err error, after time.Duration) {
	was, t, st := p.state, p.twin, &m.stats
	switch was {
	case inFlight:
		p.g.release()
	case parked:
		p.backoff.Stop()
	}
	p.state = done
	delete(m.live, p.id)
	dup := p.dropAsm()
	if o != onClose || p.isHedge {
		// On Close the original answers for a linked pair; its hedge,
		// still linked, knows to keep quiet.
		m.unlinkLocked(p)
	}
	m.cond.Broadcast() // a freed slot or a decided race may admit a queued fetch
	switch o {
	case onDeliver:
		if p.g.win != nil {
			p.g.win.OnClean()
		}
		if p.isHedge {
			bump(&st.HedgeWins, mrgHedgeWins)
		}
		if t != nil {
			m.retireLocked(t, onTwinWon, nil, 0)
		}
		return
	case onTwinWon:
		// No AIMD signal: a decided race says nothing about congestion.
		if p.isHedge {
			bump(&st.HedgeLosses, mrgHedgeLosses)
		}
		m.noteDupBytesLocked(dup)
		if was == inFlight {
			// Its request is on the wire: keep the id until the supplier's
			// terminal chunk or the connection's failure, so late chunks
			// are booked as duplicates (the reader sends a CANCEL).
			p.state = lost
			m.live[p.id] = p
		}
		return
	case onClose:
		if was != lost && (t == nil || !p.isHedge) {
			p.result <- fetchResult{spec: p.spec, err: err}
		}
		return
	case onShed:
		if p.g.win != nil {
			// Only the shedding node's window collapses; the frame says
			// nothing about the twin's node.
			p.g.win.OnShed()
		}
	}
	if t != nil {
		// One attempt of a live pair failed or was shed. The twin races the
		// same bytes, so this one is dropped quietly: no park (re-sending
		// would only load an overloaded node), no retry budget burned, no
		// error surfaced. If the twin dies too it retries alone.
		switch {
		case !p.isHedge:
			bump(&st.HedgeAdoptions, mrgHedgeAdoptions)
		case o == onShed:
			bump(&st.HedgeSheds, mrgHedgeSheds)
		default:
			bump(&st.HedgeFails, mrgHedgeFails)
		}
		m.noteDupBytesLocked(dup)
		return
	}
	switch {
	case o == onShed:
		// Park for the supplier's hint plus up to 50% jitter, so a burst of
		// sheds does not re-converge into a synchronized retry storm. A
		// shed consumes no retry budget: the request was never serviced,
		// and the AIMD collapse plus backoff bounds the re-send rate.
		bump(&st.Sheds, mrgSheds)
		m.parkLocked(p, after+rand.N(after/2+1), true)
	case o == onConnFail && p.attempts < m.cfg.MaxRetries:
		// Exponential, capped, jittered: a refused node is probed at a
		// gentle rate instead of burning the retry budget in a tight
		// dial-fail loop, and concurrent failures fan out rather than
		// re-converging into a synchronized storm.
		p.attempts++
		bump(&st.Retries, mrgRetries)
		delay := min(m.cfg.RetryBackoff<<min(p.attempts-1, 8), maxRetryBackoff)
		m.parkLocked(p, delay+rand.N(delay/2+1), false)
	default:
		bump(&st.Errors, mrgErrors)
		if p.isHedge {
			// An adopted speculative attempt surfaced the fetch's error:
			// its terminal state for the hedge conservation law.
			bump(&st.HedgeErrors, mrgHedgeErrors)
		}
		p.result <- fetchResult{spec: p.spec, err: err}
	}
}

// parkLocked holds p out of its queue for delay before unpark re-queues
// it. Must be called with m.mu held.
func (m *NetMerger) parkLocked(p *pendingFetch, delay time.Duration, shed bool) {
	p.state, p.shedPark = parked, shed
	m.live[p.id] = p
	p.backoff = time.AfterFunc(delay, func() { m.unpark(p) })
}

// unpark re-queues a parked attempt at the head of its node group once its
// backoff elapses, at the address nextAddr picks: by now a draining or
// dead supplier's shard may have moved, and following the move is what
// makes drain lossless. Runs on the backoff timer's goroutine.
func (m *NetMerger) unpark(p *pendingFetch) {
	m.mu.Lock()
	if p.state != parked {
		m.mu.Unlock()
		return // retired meanwhile: Close, or its twin won
	}
	spec, step := p.spec, rotate
	if p.shedPark {
		step = reResolve
	}
	m.mu.Unlock()
	addr := m.nextAddr(spec, step)
	m.mu.Lock()
	defer m.mu.Unlock()
	if p.state != parked {
		return
	}
	if addr != p.spec.Addr {
		p.spec.Addr = addr
		bump(&m.stats.Rerouted, mrgRerouted)
	}
	if p.shedPark {
		bump(&m.stats.ShedRetries, mrgShedRetries)
	}
	m.enqueueLocked(p, true)
	m.cond.Broadcast()
}

// addrStep says why an attempt needs an address (see nextAddr).
type addrStep uint8

const (
	rotate    addrStep = iota // a failure backoff ends: the replica after the failed one
	reResolve                 // a shed backoff ends: the shard's current owner
	hedge                     // a hedge launches: a replica other than the original's
)

// nextAddr picks where an attempt for spec goes next. With a replica set,
// a failure rotates to the next replica in ring order (a dead primary
// costs one attempt, not the retry budget) and a hedge races the same
// replica — "" when there is none. A shed stays with the owner the
// Resolver names (a shed is load, not death, and its retry-after hint
// belongs to that node), and so does a failure without replicas. Both
// callbacks may block on registry I/O: call it without m.mu.
func (m *NetMerger) nextAddr(spec FetchSpec, step addrStep) string {
	if step != reResolve && m.cfg.Replicas != nil {
		rs := m.cfg.Replicas(spec)
		i := slices.Index(rs, spec.Addr)
		for k := 1; k <= len(rs); k++ {
			if a := rs[(i+k)%len(rs)]; a != "" && a != spec.Addr {
				return a
			}
		}
		if step == hedge {
			return ""
		}
		return spec.Addr
	}
	if m.cfg.Resolver != nil {
		if a, err := m.cfg.Resolver(spec); err == nil && a != "" {
			return a
		}
	}
	return spec.Addr
}

// errFetchStalled is the failure the deadline scan assigns to a
// connection whose oldest in-flight fetch exceeded FetchTimeout.
var errFetchStalled = errors.New("core: fetch deadline exceeded (stalled connection)")

// failConn handles a dead (or stalled) connection to g's node, observed
// under the given epoch: every attempt in flight on it is retired (to a
// retry or an error) and its cancelled losers forgotten. A report from an
// epoch already passed is stale and dropped. conn, when non-nil, is the
// connection the caller saw fail; invalidation is conn-identity-guarded so
// a stale report cannot tear down a fresh replacement.
func (m *NetMerger) failConn(g *nodeGroup, epoch uint64, conn transport.Conn, err error) {
	// Invalidate before retiring so the retries dial fresh. Transient
	// (backpressure) conditions never invalidate — a shed peer is healthy
	// (see ConnCache).
	if conn != nil {
		m.cache.InvalidateConn(g.addr, conn, err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if g.epoch != epoch {
		return // stale: this connection generation was already recycled
	}
	g.epoch++
	g.reading = false
	failed := false
	for _, p := range m.live {
		if p.g != g {
			continue
		}
		switch p.state {
		case lost: // its connection can send no more late chunks
			p.state = done
			delete(m.live, p.id)
		case inFlight:
			failed = true
			m.retireLocked(p, onConnFail, err, 0)
		}
	}
	if failed && g.win != nil {
		g.win.OnTimeout()
	}
}

// stall is a connection the deadline scan found stalled.
type stall struct {
	g     *nodeGroup
	epoch uint64
}

// hedgeCandidate is a fetch the scan decided to hedge, with its spec
// copied under the lock for the replica lookup outside it.
type hedgeCandidate struct {
	p    *pendingFetch
	spec FetchSpec
}

// scanLoop is the merger's one clock. A stalled connection — the peer
// accepted requests but never responds — surfaces no transport error, so
// each tick fails over any connection whose oldest in-flight fetch has
// waited longer than FetchTimeout. With hedging on it also races fetches
// past their node's threshold against a replica. A periodic scan instead
// of per-fetch timers keeps the success path free of timers, at the price
// of one tick of slack; the tick reuses its buffers and allocates nothing.
func (m *NetMerger) scanLoop() {
	defer m.wg.Done()
	period := max(m.cfg.FetchTimeout/4, time.Millisecond)
	if m.cfg.Hedge != nil {
		period = min(period, hedgeScanInterval)
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	var stalls []stall
	var hedges []hedgeCandidate
	for {
		select {
		case <-m.stop:
			return
		case <-ticker.C:
		}
		stalls, hedges = m.scan(stalls[:0], hedges[:0])
	}
}

// scan is one tick. It collects, under the lock, the stalled connections
// and the fetches to hedge into the given buffers, acts on them off the
// lock, and hands the buffers back for the next tick.
func (m *NetMerger) scan(stalls []stall, hedges []hedgeCandidate) ([]stall, []hedgeCandidate) {
	now := time.Now()
	m.mu.Lock()
	h := m.cfg.Hedge
	free := 0
	if h != nil {
		free = maxHedgesOutstanding - m.hedgeOutstanding
	}
	for _, p := range m.live {
		if p.state != inFlight {
			continue
		}
		age := now.Sub(p.sentAt)
		if age >= m.cfg.FetchTimeout && !slices.ContainsFunc(stalls, func(s stall) bool { return s.g == p.g }) {
			stalls = append(stalls, stall{p.g, p.g.epoch})
			// Count the trip at detection, like corrupt frames: tearing the
			// conn down wakes its blocked reader, whose own failConn may win
			// the epoch race — the deadline violation is a fact either way.
			bump(&m.stats.DeadlineTrips, mrgDeadlineTrips)
		}
		if h == nil || p.twin != nil || p.hedged {
			continue
		}
		if thr := h.Threshold(p.g.rtt); thr <= 0 || age < thr {
			continue
		}
		if len(hedges) >= free {
			// Budget exhausted: the retry backoff and deadline still cover
			// the fetch.
			m.denyHedgeLocked(p)
			continue
		}
		hedges = append(hedges, hedgeCandidate{p, p.spec})
	}
	m.mu.Unlock()
	for _, s := range stalls {
		// Peek, don't Get: a missing cache entry means the connection is
		// already closed (invalidation and eviction both close), so there
		// is nothing to tear down — only attempts to retire.
		conn, _ := m.cache.Peek(s.g.addr)
		m.failConn(s.g, s.epoch, conn, errFetchStalled)
	}
	for _, c := range hedges {
		m.launchHedge(c.p, c.spec, m.nextAddr(c.spec, hedge))
	}
	return stalls, hedges
}

// --- Hedging controller (speculative replica fetching) ---
//
// A fetch that outlives its node's quantile-derived latency threshold is
// raced against a replica supplier: a duplicate request with its own id
// goes to the next distinct address in the replica set, the first
// CRC-clean response wins, and the loser is retired (onTwinWon) with a
// best-effort CANCEL frame so the supplier stops transmitting. A budget
// caps concurrently racing duplicates; at the cap hedging degrades to the
// plain retry/deadline path instead of amplifying an overload.

// launchHedge races a duplicate of attempt p against target, resolved
// off the lock; p is re-checked, since it may have completed, failed over
// or moved meanwhile.
func (m *NetMerger) launchHedge(p *pendingFetch, spec FetchSpec, target string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p.state != inFlight || p.twin != nil || p.hedged || p.spec.Addr != spec.Addr {
		return
	}
	if target == "" {
		// No distinct replica: stop considering the fetch; the deadline
		// remains its backstop.
		p.hedged = true
		mrgHedgeNoReplica.Inc()
		return
	}
	if m.hedgeOutstanding >= maxHedgesOutstanding {
		m.denyHedgeLocked(p)
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
	p.hedged, p.twin = true, h
	m.hedgeOutstanding++
	mrgHedgeOutstanding.Add(1)
	bump(&m.stats.Hedges, mrgHedges)
	m.enqueueLocked(h, true)
	m.cond.Broadcast()
}

// denyHedgeLocked counts a budget denial, once per fetch. Must be called
// with m.mu held.
func (m *NetMerger) denyHedgeLocked(p *pendingFetch) {
	if !p.hedgeDenied {
		p.hedgeDenied = true
		bump(&m.stats.HedgeDenials, mrgHedgeDenials)
	}
}

// unlinkLocked severs p's hedged pair, if linked, and returns the pair's
// budget slot. With launchHedge it is the only place hedgeOutstanding and
// its gauge move. Must be called with m.mu held.
func (m *NetMerger) unlinkLocked(p *pendingFetch) {
	if t := p.twin; t != nil {
		p.twin, t.twin = nil, nil
		m.hedgeOutstanding--
		mrgHedgeOutstanding.Add(-1)
	}
}

// noteDupBytesLocked adds n payload bytes to the duplicate-byte ledger:
// data received for an attempt that had already lost its race. Must be
// called with m.mu held.
func (m *NetMerger) noteDupBytesLocked(n int64) {
	if n > 0 {
		m.stats.HedgeDupBytes += n
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
	_ = conn.Send(appendCancel(l.Bytes()[:0], id))
	l.Release()
}
