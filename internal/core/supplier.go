package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/flow"
	"repro/internal/metrics"
	"repro/internal/mof"
	"repro/internal/transport"
)

// LookupFunc resolves a map task id to its MOF files on local disk.
type LookupFunc func(mapTask string) (dataPath, indexPath string, err error)

// SupplierConfig configures a MOFSupplier.
type SupplierConfig struct {
	// Transport is the network backend.
	Transport transport.Transport
	// Addr is the listen address.
	Addr string
	// BufferSize is the transport buffer size for response chunks.
	BufferSize int
	// DataCacheBytes sizes the DataCache.
	DataCacheBytes int64
	// PrefetchBatch is the number of requests served per group turn of the
	// round-robin disk prefetch server.
	PrefetchBatch int
	// XmitWorkers is the number of asynchronous transmission workers.
	XmitWorkers int
	// IndexCacheEntries sizes the IndexCache.
	IndexCacheEntries int
	// FileCacheEntries caps the open-file-handle cache over MOF data files.
	FileCacheEntries int
	// Flow enables admission control and weighted fair scheduling: fetch
	// requests are charged to a byte-budgeted ledger (over budget they
	// queue, over the hard limit they are shed with a retry-after hint)
	// and the prefetch server schedules tenants by weighted deficit
	// round-robin. Nil keeps the paper's unmanaged pipeline.
	Flow *flow.Config
	// Tenant maps a map-task id to its tenant (job) for fair scheduling;
	// nil places all traffic in one tenant. Ignored when Flow is nil.
	Tenant flow.TenantFunc
}

func (c *SupplierConfig) applyDefaults() error {
	if c.Transport == nil {
		return errors.New("core: supplier needs a transport")
	}
	if c.Addr == "" {
		return errors.New("core: supplier needs an address")
	}
	// Every numeric knob follows one rule: zero means default, negative is
	// rejected by name.
	if c.BufferSize < 0 {
		return fmt.Errorf("core: supplier BufferSize %d must not be negative", c.BufferSize)
	}
	if c.DataCacheBytes < 0 {
		return fmt.Errorf("core: supplier DataCacheBytes %d must not be negative", c.DataCacheBytes)
	}
	if c.PrefetchBatch < 0 {
		return fmt.Errorf("core: supplier PrefetchBatch %d must not be negative", c.PrefetchBatch)
	}
	if c.XmitWorkers < 0 {
		return fmt.Errorf("core: supplier XmitWorkers %d must not be negative", c.XmitWorkers)
	}
	if c.IndexCacheEntries < 0 {
		return fmt.Errorf("core: supplier IndexCacheEntries %d must not be negative", c.IndexCacheEntries)
	}
	if c.FileCacheEntries < 0 {
		return fmt.Errorf("core: supplier FileCacheEntries %d must not be negative", c.FileCacheEntries)
	}
	if c.BufferSize == 0 {
		c.BufferSize = transport.DefaultBufferSize
	}
	if c.DataCacheBytes == 0 {
		c.DataCacheBytes = 64 << 20
	}
	if c.PrefetchBatch == 0 {
		c.PrefetchBatch = 4
	}
	if c.XmitWorkers == 0 {
		c.XmitWorkers = 2
	}
	if c.IndexCacheEntries == 0 {
		c.IndexCacheEntries = 256
	}
	if c.FileCacheEntries == 0 {
		c.FileCacheEntries = 128
	}
	if c.Flow != nil {
		// Copy before defaulting so a shared Config literal isn't mutated.
		fc := *c.Flow
		if err := fc.ApplyDefaults(); err != nil {
			return err
		}
		c.Flow = &fc
	}
	return nil
}

// SupplierStats counts a MOFSupplier's work.
type SupplierStats struct {
	Requests    int64
	BytesServed int64
	DiskReads   int64
	CacheHits   int64
	GroupTurns  int64
	Errors      int64
	DrainSheds  int64 // requests rejected because the supplier is draining
	Cancels     int64 // CANCEL frames received (merger withdrew a hedged fetch)
}

// supplierReq is one resolved fetch request in flight through the pipeline.
type supplierReq struct {
	conn  *supplierConn
	id    uint64
	task  string
	part  int
	data  string // MOF data path
	entry mof.IndexEntry
	// charge is the byte charge held against the admission ledger for
	// this request's resident life; zero when flow control is off (or
	// the request was shed before admission).
	charge int64
}

// supplierReqPool recycles request records between fetches; without it
// every fetch allocates one. A record goes back to the pool at whichever
// point ends its trip through the pipeline (transmit done, stage failure,
// shutdown); records dropped in channels at shutdown are simply collected.
var supplierReqPool = sync.Pool{New: func() any { return new(supplierReq) }}

func putSupplierReq(r *supplierReq) {
	*r = supplierReq{} // drop conn/string references before pooling
	supplierReqPool.Put(r)
}

// supplierConn serializes response writes to one client connection. The
// header scratch is reused under sendMu so chunking a segment performs no
// allocation: headers come from hdr, payloads are sliced straight out of
// the cached segment, and SendVec gathers the two on the wire.
type supplierConn struct {
	conn   transport.Conn
	sendMu sync.Mutex
	hdr    [sizedChunkHeaderLen]byte // sendMu-guarded header scratch
	vecs   [][]byte                  // sendMu-guarded gather scratch

	// Fetch ids withdrawn by merger CANCEL frames, consumed at the next
	// pipeline checkpoint (stage, transmit entry, or between chunks).
	// nCancelled mirrors len(cancelled) so the per-chunk transmit check
	// costs one atomic load — not a lock — while no cancel is pending.
	cancelMu   sync.Mutex
	cancelled  map[uint64]struct{}
	nCancelled atomic.Int64
}

// maxCancelledIDs caps the per-connection cancelled-id set. A merger
// cancelling faster than its fetches terminate is misbehaving; past the
// cap the set is cleared — serving an already-decided fetch costs only
// duplicate bytes, never correctness.
const maxCancelledIDs = 1024

// markCancelled records a merger's withdrawal of fetch id. The mark
// outlives a request that already terminated (cancel raced the last
// chunk) until the cap clears it — bounded garbage, not a leak.
func (sc *supplierConn) markCancelled(id uint64) {
	sc.cancelMu.Lock()
	if sc.cancelled == nil {
		sc.cancelled = make(map[uint64]struct{})
	} else if len(sc.cancelled) >= maxCancelledIDs {
		clear(sc.cancelled)
	}
	sc.cancelled[id] = struct{}{}
	sc.nCancelled.Store(int64(len(sc.cancelled)))
	sc.cancelMu.Unlock()
}

// takeCancelled reports whether fetch id was withdrawn, consuming the
// mark on a hit.
func (sc *supplierConn) takeCancelled(id uint64) bool {
	if sc.nCancelled.Load() == 0 {
		return false
	}
	sc.cancelMu.Lock()
	_, ok := sc.cancelled[id]
	if ok {
		delete(sc.cancelled, id)
		sc.nCancelled.Store(int64(len(sc.cancelled)))
	}
	sc.cancelMu.Unlock()
	return ok
}

// isCancelled reports whether fetch id is withdrawn without consuming
// the mark — the between-chunks transmit check, where the consuming
// cleanup belongs to the caller's abort path.
func (sc *supplierConn) isCancelled(id uint64) bool {
	if sc.nCancelled.Load() == 0 {
		return false
	}
	sc.cancelMu.Lock()
	_, ok := sc.cancelled[id]
	sc.cancelMu.Unlock()
	return ok
}

// errXmitCancelled reports a transmission aborted between chunks by a
// CANCEL frame. Internal to the transmit path — the merger sees a
// truncated stream followed by the terminal cancelled ack.
var errXmitCancelled = errors.New("transmit cancelled")

func (sc *supplierConn) sendChunks(id uint64, data []byte, bufSize int) error {
	sc.sendMu.Lock()
	defer sc.sendMu.Unlock()
	rest := data
	first := true
	for {
		if !first && sc.isCancelled(id) {
			// A CANCEL landed mid-stream: stop here. The merger already
			// retired this id, so a truncated stream is fine — the
			// caller's terminal ack is what closes its tracking.
			return errXmitCancelled
		}
		chunk := rest
		if len(chunk) > bufSize {
			chunk = chunk[:bufSize]
		}
		rest = rest[len(chunk):]
		var flags byte
		if len(rest) == 0 {
			flags |= flagLast
		}
		if first {
			// The first chunk announces the segment's total size so the
			// merger can allocate its reassembly buffer exactly once.
			flags |= flagSized
			first = false
		}
		hdr := appendChunkHeader(sc.hdr[:0], id, flags, int64(len(data)), chunk)
		sc.vecs = append(sc.vecs[:0], hdr, chunk)
		if err := transport.SendVec(sc.conn, sc.vecs...); err != nil {
			return err
		}
		if len(rest) == 0 {
			return nil
		}
	}
}

func (sc *supplierConn) sendError(id uint64, ferr error) error {
	sc.sendMu.Lock()
	defer sc.sendMu.Unlock()
	msg := encodeDataChunk(dataChunk{ID: id, Last: true, Failed: true, Payload: []byte(ferr.Error())})
	return sc.conn.Send(msg)
}

// sendShed rejects one request with a retry-after hint. The frame is
// built in the connection's header scratch: shedding under overload —
// exactly when memory is scarce — performs no allocation.
func (sc *supplierConn) sendShed(id uint64, retryAfter time.Duration) error {
	sc.sendMu.Lock()
	defer sc.sendMu.Unlock()
	return sc.conn.Send(appendShed(sc.hdr[:0], id, retryAfter))
}

// sendCredit grants flow-control credits to the connection's merger.
func (sc *supplierConn) sendCredit(credits uint32) error {
	sc.sendMu.Lock()
	defer sc.sendMu.Unlock()
	return sc.conn.Send(appendCredit(sc.hdr[:0], credits))
}

// MOFSupplier is JBS's server component (Section III-B): it replaces the
// HttpServlets with a native pipeline — requests are grouped by target MOF
// and ordered by segment offset, groups are served round-robin by the disk
// prefetch server into the DataCache, and staged segments are transmitted
// by asynchronous workers. Disk reads and network sends overlap instead of
// serializing per request.
type MOFSupplier struct {
	cfg    SupplierConfig
	lookup LookupFunc

	lis    transport.Listener
	icache *mof.IndexCache
	dcache *DataCache
	fcache *mof.FileCache
	pool   *bufpool.Pool

	reqCh  chan *supplierReq
	xmitCh chan *supplierReq

	done chan struct{}
	wg   sync.WaitGroup

	connMu sync.Mutex
	conns  map[transport.Conn]*supplierConn

	// Flow control plane; all nil/zero when cfg.Flow is nil.
	ledger     *flow.Ledger
	drr        *flow.DRR
	unregister func()

	// Graceful drain: draining latches once Drain is called; inflight
	// counts requests inside the pipeline (admitted but not yet finished),
	// and the last one out closes drainCh. drainMu guards drainCh and
	// drainStart.
	draining   atomic.Bool
	inflight   atomic.Int64
	drainMu    sync.Mutex
	drainCh    chan struct{}
	drainStart time.Time

	requests    atomic.Int64
	bytesServed atomic.Int64
	diskReads   atomic.Int64
	cacheHits   atomic.Int64
	groupTurns  atomic.Int64
	errCount    atomic.Int64
	drainSheds  atomic.Int64
	cancels     atomic.Int64

	closeOnce sync.Once
}

// NewMOFSupplier starts a supplier serving the MOFs resolved by lookup.
func NewMOFSupplier(cfg SupplierConfig, lookup LookupFunc) (*MOFSupplier, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	if lookup == nil {
		return nil, errors.New("core: supplier needs a lookup function")
	}
	lis, err := cfg.Transport.Listen(cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("core: supplier listen: %w", err)
	}
	s := &MOFSupplier{
		cfg:    cfg,
		lookup: lookup,
		lis:    lis,
		icache: mof.NewIndexCache(cfg.IndexCacheEntries),
		dcache: NewDataCache(cfg.DataCacheBytes),
		fcache: mof.NewFileCache(cfg.FileCacheEntries),
		pool:   bufpool.Default(),
		reqCh:  make(chan *supplierReq, 1024),
		xmitCh: make(chan *supplierReq, 256),
		done:   make(chan struct{}),
		conns:  make(map[transport.Conn]*supplierConn),
	}
	if cfg.Flow != nil {
		s.ledger = flow.NewLedger(*cfg.Flow)
		s.drr = flow.NewDRR(cfg.Flow.Quantum, cfg.Flow.Weights)
		s.unregister = flow.Register(s)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	s.wg.Add(1)
	go s.prefetchLoop()
	for i := 0; i < cfg.XmitWorkers; i++ {
		s.wg.Add(1)
		go s.xmitLoop()
	}
	return s, nil
}

// Addr returns the bound listen address.
func (s *MOFSupplier) Addr() string { return s.lis.Addr() }

// Stats snapshots the supplier's counters.
func (s *MOFSupplier) Stats() SupplierStats {
	return SupplierStats{
		Requests:    s.requests.Load(),
		BytesServed: s.bytesServed.Load(),
		DiskReads:   s.diskReads.Load(),
		CacheHits:   s.cacheHits.Load(),
		GroupTurns:  s.groupTurns.Load(),
		Errors:      s.errCount.Load(),
		DrainSheds:  s.drainSheds.Load(),
		Cancels:     s.cancels.Load(),
	}
}

// CacheStats exposes the DataCache counters.
func (s *MOFSupplier) CacheStats() (hits, misses, evictions int64) {
	return s.dcache.Stats()
}

// FlowState snapshots the supplier's control-plane state (admission
// ledger and per-tenant queues) for the /debug/jbs/flow endpoint.
func (s *MOFSupplier) FlowState() flow.State {
	st := flow.State{Name: "supplier " + s.Addr()}
	if s.ledger != nil {
		ls := s.ledger.State()
		st.Ledger = &ls
	}
	if s.drr != nil {
		st.Tenants = s.drr.Occupancy()
	}
	return st
}

// tenantOf maps a map task to its scheduling tenant.
func (s *MOFSupplier) tenantOf(task string) string {
	if s.cfg.Tenant == nil {
		return ""
	}
	return s.cfg.Tenant(task)
}

// releaseCharge returns a request's admitted bytes to the ledger at
// whichever point ends its resident life. When the release recovers the
// ledger from a shedding episode, the supplier broadcasts one credit to
// every connected merger — the cue that capacity is back.
func (s *MOFSupplier) releaseCharge(r *supplierReq) {
	if s.ledger == nil || r.charge == 0 {
		return
	}
	if s.ledger.Release(r.charge) {
		s.grantCredits()
	}
}

// finish ends a request's trip through the pipeline at whichever point
// terminates it (transmit done, stage failure, shutdown): the admission
// charge is released, the record recycled, and the pipeline occupancy
// retired — the last occupant out completes a pending drain.
func (s *MOFSupplier) finish(r *supplierReq) {
	s.releaseCharge(r)
	putSupplierReq(r)
	s.decInflight()
}

// decInflight retires one pipeline occupant. Under a drain the last one
// out signals drain completion.
func (s *MOFSupplier) decInflight() {
	if s.inflight.Add(-1) == 0 && s.draining.Load() {
		s.drainMu.Lock()
		if s.drainCh != nil {
			s.closeDrainLocked()
		}
		s.drainMu.Unlock()
	}
}

// closeDrainLocked marks the drain complete (idempotently). The caller
// holds drainMu and has observed inflight at zero with the drain latch
// set.
func (s *MOFSupplier) closeDrainLocked() {
	select {
	case <-s.drainCh:
	default:
		close(s.drainCh)
		supDrainState.Add(-1)
		supDrainWait.Observe(time.Since(s.drainStart).Nanoseconds())
	}
}

// drainRetryAfter is the retry-after hint carried on drain sheds when
// flow control is off; with flow on the configured RetryAfter is used.
// The hint only has to outlive the registry's ownership handoff from the
// merger's point of view — shed retries consume no retry budget, so a
// too-short hint costs extra round trips, never a lost fetch.
const drainRetryAfter = 2 * time.Millisecond

// shedRetryAfter is the hint attached to shed responses.
func (s *MOFSupplier) shedRetryAfter() time.Duration {
	if s.cfg.Flow != nil {
		return s.cfg.Flow.RetryAfter
	}
	return drainRetryAfter
}

// Drain puts the supplier into graceful-shutdown mode and blocks until
// the pipeline is empty (or ctx expires). A draining supplier sheds
// every new fetch request — reusing the flow-control SHED frame, so
// mergers park the fetch, re-resolve its owner, and retry against the
// peer that took over this supplier's shards — while requests already
// admitted run to completion. Drain is idempotent: concurrent and
// repeated calls wait on the same completion. With zero inflight
// requests it returns immediately. The caller typically hands shard
// ownership to a peer (registry drain) before calling Drain, then
// Closes the supplier once Drain returns.
func (s *MOFSupplier) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	if s.drainCh == nil {
		s.drainCh = make(chan struct{})
		s.drainStart = time.Now()
		s.draining.Store(true)
		if s.ledger != nil {
			s.ledger.SetDraining(true)
		}
		supDrains.Inc()
		supDrainState.Add(1)
		if s.inflight.Load() == 0 {
			s.closeDrainLocked()
		}
	}
	ch := s.drainCh
	s.drainMu.Unlock()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-s.done:
		// Close raced the drain; if the pipeline emptied first the drain
		// still counts as complete.
		select {
		case <-ch:
			return nil
		default:
		}
		return errors.New("core: supplier closed while draining")
	}
}

// Draining reports whether Drain has been called.
func (s *MOFSupplier) Draining() bool { return s.draining.Load() }

// Inflight returns the number of fetch requests currently inside the
// pipeline (admitted but not yet transmitted or failed).
func (s *MOFSupplier) Inflight() int64 { return s.inflight.Load() }

// grantCredits sends one flow-control credit to every connected client.
// The connection list is snapshotted under connMu and the sends happen
// outside it, so a slow client never stalls the supplier's lock.
func (s *MOFSupplier) grantCredits() {
	s.connMu.Lock()
	scs := make([]*supplierConn, 0, len(s.conns))
	for _, sc := range s.conns {
		scs = append(scs, sc)
	}
	s.connMu.Unlock()
	for _, sc := range scs {
		// A failed credit send is not an error: the connection is dying
		// anyway, and its connLoop will reap it.
		_ = sc.sendCredit(1)
	}
}

// Close stops the supplier and its connections, drains the DataCache back
// to the buffer pool, and closes the cached file handles.
func (s *MOFSupplier) Close() error {
	s.closeOnce.Do(func() {
		close(s.done)
		s.lis.Close()
		s.connMu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.connMu.Unlock()
		if s.unregister != nil {
			s.unregister()
		}
	})
	s.wg.Wait()
	s.dcache.Drain()
	return s.fcache.Close()
}

func (s *MOFSupplier) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return
		}
		sc := &supplierConn{conn: conn}
		s.connMu.Lock()
		s.conns[conn] = sc
		s.connMu.Unlock()
		s.wg.Add(1)
		go s.connLoop(sc)
	}
}

// connLoop reads and resolves fetch requests from one client.
func (s *MOFSupplier) connLoop(sc *supplierConn) {
	defer s.wg.Done()
	conn := sc.conn
	defer func() {
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		conn.Close()
	}()
	intern := make(map[string]string) // task names repeat across requests
	for {
		l, err := transport.RecvBuf(conn)
		if err != nil {
			return
		}
		if b := l.Bytes(); len(b) > 0 && b[0] == msgCancel {
			// A hedging merger withdrawing a fetch whose race is decided.
			// Handled here, ahead of the request decoder (which treats
			// any non-request frame as a protocol violation).
			id, cerr := decodeCancel(b)
			l.Release()
			if cerr != nil {
				if errors.Is(cerr, ErrCorruptFrame) {
					supCorruptFrames.Inc()
				}
				s.errCount.Add(1)
				supErrors.Inc()
				return // protocol violation: drop the connection
			}
			sc.markCancelled(id)
			s.cancels.Add(1)
			supCancels.Inc()
			continue
		}
		req, err := decodeFetchRequestInterned(l.Bytes(), intern)
		l.Release() // the decoder copies (or interns) what it keeps
		if err != nil {
			if errors.Is(err, ErrCorruptFrame) {
				supCorruptFrames.Inc()
			}
			s.errCount.Add(1)
			supErrors.Inc()
			return // protocol violation: drop the connection
		}
		s.requests.Add(1)
		supRequests.Inc()
		resolved, rerr := s.resolve(sc, req)
		if rerr != nil {
			s.errCount.Add(1)
			supErrors.Inc()
			if serr := sc.sendError(req.ID, rerr); serr != nil {
				return
			}
			continue
		}
		// Occupancy is claimed before the drain check: Drain's store of
		// the latch and its read of inflight are both sequentially
		// consistent atomics, so either this request sees the latch (and
		// sheds) or Drain sees the occupancy (and waits for it). No
		// request can slip into the pipeline unseen by a drain.
		s.inflight.Add(1)
		if s.draining.Load() {
			s.drainSheds.Add(1)
			supDrainSheds.Inc()
			s.decInflight()
			putSupplierReq(resolved)
			if serr := sc.sendShed(req.ID, s.shedRetryAfter()); serr != nil {
				return
			}
			continue
		}
		if s.ledger != nil {
			// Admission: charge the segment's resident bytes before the
			// request enters the pipeline. A shed charges nothing — the
			// client backs off and retries; the connection stays up.
			if s.ledger.Admit(resolved.entry.Length) == flow.Shed {
				s.decInflight()
				putSupplierReq(resolved)
				if serr := sc.sendShed(req.ID, s.cfg.Flow.RetryAfter); serr != nil {
					return
				}
				continue
			}
			resolved.charge = resolved.entry.Length
		}
		select {
		case s.reqCh <- resolved:
			supQueueDepth.Add(1)
		case <-s.done:
			s.finish(resolved)
			return
		}
	}
}

// resolve locates the requested segment via the IndexCache.
func (s *MOFSupplier) resolve(sc *supplierConn, req fetchRequest) (*supplierReq, error) {
	dataPath, indexPath, err := s.lookup(req.MapTask)
	if err != nil {
		return nil, fmt.Errorf("unknown MOF %s: %w", req.MapTask, err)
	}
	ix, err := s.icache.Get(indexPath)
	if err != nil {
		return nil, fmt.Errorf("index for %s: %w", req.MapTask, err)
	}
	entry, err := ix.Entry(int(req.Partition))
	if err != nil {
		return nil, fmt.Errorf("partition %d of %s: %w", req.Partition, req.MapTask, err)
	}
	r := supplierReqPool.Get().(*supplierReq)
	*r = supplierReq{
		conn:  sc,
		id:    req.ID,
		task:  req.MapTask,
		part:  int(req.Partition),
		data:  dataPath,
		entry: entry,
	}
	return r, nil
}

// mofGroup is the per-MOF request group: requests ordered by segment
// offset so a batch reads the file near-sequentially. Served requests are
// advanced past with head (instead of re-slicing) so a drained group can
// be recycled with its backing array intact.
type mofGroup struct {
	task   string
	tenant string // scheduling tenant, fixed at group creation
	reqs   []*supplierReq
	head   int // reqs[:head] have been served
}

func (g *mofGroup) pending() int { return len(g.reqs) - g.head }

func (g *mofGroup) insert(r *supplierReq) {
	reqs := g.reqs[g.head:]
	i := g.head + sort.Search(len(reqs), func(i int) bool {
		return reqs[i].entry.Offset > r.entry.Offset
	})
	g.reqs = append(g.reqs, nil)
	copy(g.reqs[i+1:], g.reqs[i:])
	g.reqs[i] = r
}

// reset clears the group for reuse, dropping request references but
// keeping the slice capacity.
func (g *mofGroup) reset() {
	for i := range g.reqs {
		g.reqs[i] = nil
	}
	g.reqs = g.reqs[:0]
	g.head = 0
	g.task = ""
	g.tenant = ""
}

// tenantRing is one tenant's round-robin ring of MOF group keys inside
// the prefetch scheduler.
type tenantRing struct {
	keys []string
	next int
}

// prefetchLoop is the disk prefetch server: it maintains the per-MOF
// groups and serves them in batches, staging each batch in the DataCache
// and handing staged requests to the transmit workers. Without flow
// control every group lives in one ring served strictly round-robin
// (the paper's policy); with flow control groups are ringed per tenant
// and the weighted deficit round-robin scheduler picks which tenant's
// ring advances, so one heavy job cannot starve the others.
func (s *MOFSupplier) prefetchLoop() {
	defer s.wg.Done()
	groups := make(map[string]*mofGroup)  // task -> group
	rings := make(map[string]*tenantRing) // tenant -> its group ring
	var free []*mofGroup                  // drained groups, recycled
	singleRing := &tenantRing{}           // the one ring when flow is off
	if s.drr == nil {
		rings[""] = singleRing
	}

	add := func(r *supplierReq) {
		g, ok := groups[r.task]
		if !ok {
			if n := len(free); n > 0 {
				g, free = free[n-1], free[:n-1]
			} else {
				g = &mofGroup{}
			}
			g.task = r.task
			g.tenant = s.tenantOf(r.task)
			groups[r.task] = g
			tr := rings[g.tenant]
			if tr == nil {
				tr = &tenantRing{}
				rings[g.tenant] = tr
			}
			tr.keys = append(tr.keys, r.task)
		}
		g.insert(r)
		if s.drr != nil {
			s.drr.Add(g.tenant, r.entry.Length)
		}
	}

	for {
		if len(groups) == 0 {
			// Idle: block for work.
			select {
			case r, ok := <-s.reqCh:
				if !ok {
					return
				}
				supQueueDepth.Add(-1)
				add(r)
			case <-s.done:
				return
			}
			continue
		}
		// Drain newly arrived requests without blocking, so grouping sees
		// bursts together.
		for {
			select {
			case r := <-s.reqCh:
				supQueueDepth.Add(-1)
				add(r)
				continue
			default:
			}
			break
		}
		// Pick the tenant whose ring advances this turn.
		tenant := ""
		if s.drr != nil {
			tn, ok := s.drr.Next()
			if !ok {
				// Groups exist but no tenant is active in the DRR. This
				// should be unreachable (Add charges at least one unit per
				// request, so a tenant stays active while requests pend),
				// but if accounting ever drifts, block for the next
				// arrival — which re-activates its tenant — instead of
				// busy-spinning a core on the non-blocking drain above.
				select {
				case r, ok := <-s.reqCh:
					if !ok {
						return
					}
					supQueueDepth.Add(-1)
					add(r)
				case <-s.done:
					return
				}
				continue
			}
			tenant = tn
		}
		tr := rings[tenant]
		if tr == nil || len(tr.keys) == 0 {
			continue // defensive: scheduler/ring drift should not happen
		}
		// Serve one batch from the tenant's next group in ring order.
		if tr.next >= len(tr.keys) {
			tr.next = 0
		}
		key := tr.keys[tr.next]
		g := groups[key]
		batch := s.cfg.PrefetchBatch
		if batch > g.pending() {
			batch = g.pending()
		}
		taken := g.reqs[g.head : g.head+batch]
		g.head += batch
		drained := g.pending() == 0
		if drained {
			delete(groups, key)
			tr.keys = append(tr.keys[:tr.next], tr.keys[tr.next+1:]...)
			if len(tr.keys) == 0 && s.drr != nil {
				delete(rings, tenant)
			}
		} else {
			tr.next++
		}
		// Charge the DRR what Add charged on arrival: flow.Cost floors
		// zero-length segments at one unit, keeping the tenant active
		// exactly while it has pending requests.
		var batchCost int64
		for _, r := range taken {
			batchCost += flow.Cost(r.entry.Length)
		}
		s.groupTurns.Add(1)
		supGroupTurns.Inc()
		for _, r := range taken {
			s.stage(r)
		}
		if s.drr != nil {
			s.drr.Serve(tenant, batchCost)
		}
		if drained {
			// taken aliased g.reqs, so recycle only after staging.
			g.reset()
			free = append(free, g)
		}
	}
}

// errFetchCancelled is the terminal ack for a fetch withdrawn by a
// CANCEL frame. The merger's pending entry is already gone; the ack's
// only job is to retire its late-chunk (duplicate byte) tracking.
var errFetchCancelled = errors.New("cancelled by merger")

// ackCancelled retires a request withdrawn by a CANCEL frame: skip the
// remaining work, send the terminal ack, and exit through finish so
// ledger and drain conservation hold. The ack is best-effort — if the
// send fails the connection is dying and the merger's conn-failure path
// cleans its tracking instead.
func (s *MOFSupplier) ackCancelled(r *supplierReq) {
	r.conn.sendError(r.id, errFetchCancelled)
	s.finish(r)
}

// stage reads one segment (or hits the DataCache) and queues transmission.
func (s *MOFSupplier) stage(r *supplierReq) {
	if r.conn.takeCancelled(r.id) {
		// Withdrawn before the disk read — the whole point of CANCEL:
		// the loser of a hedge race costs no I/O at all.
		s.ackCancelled(r)
		return
	}
	if _, ok := s.dcache.Pin(r.task, r.part); ok {
		s.cacheHits.Add(1)
	} else {
		lease, err := mof.ReadSegmentLease(s.fcache, s.pool, r.data, r.entry)
		if err != nil {
			s.errCount.Add(1)
			supErrors.Inc()
			r.conn.sendError(r.id, err)
			s.finish(r)
			return
		}
		s.diskReads.Add(1)
		s.dcache.Put(r.task, r.part, lease) // cache owns the lease now
	}
	tracer.Mark(r.task, r.part, metrics.StageStaged)
	select {
	case s.xmitCh <- r:
		supXmitDepth.Add(1)
	case <-s.done:
		s.dcache.Unpin(r.task, r.part)
		s.finish(r)
	}
}

// xmitLoop transmits staged segments asynchronously.
func (s *MOFSupplier) xmitLoop() {
	defer s.wg.Done()
	for {
		select {
		case r := <-s.xmitCh:
			if r.conn.takeCancelled(r.id) {
				// Withdrawn while staged: drop the staging pin and ack
				// without touching the wire.
				s.dcache.Unpin(r.task, r.part)
				supXmitDepth.Add(-1)
				s.ackCancelled(r)
				continue
			}
			data, ok := s.dcache.Pin(r.task, r.part)
			if !ok {
				// The staging pin guarantees residency; a miss here is a
				// logic error surfaced to the client.
				s.errCount.Add(1)
				supErrors.Inc()
				r.conn.sendError(r.id, errors.New("segment evicted while staged"))
				supXmitDepth.Add(-1)
				s.finish(r)
				continue
			}
			tracer.Mark(r.task, r.part, metrics.StageXmit)
			err := r.conn.sendChunks(r.id, data, s.cfg.BufferSize)
			s.dcache.Unpin(r.task, r.part) // xmit pin
			s.dcache.Unpin(r.task, r.part) // staging pin
			switch {
			case err == nil:
				s.bytesServed.Add(int64(len(data)))
				supBytes.Add(int64(len(data)))
			case errors.Is(err, errXmitCancelled):
				// Aborted between chunks by a CANCEL; not an error. The
				// terminal ack closes the truncated stream for the merger.
				r.conn.takeCancelled(r.id)
				r.conn.sendError(r.id, errFetchCancelled)
			default:
				s.errCount.Add(1)
				supErrors.Inc()
			}
			supXmitDepth.Add(-1)
			s.finish(r)
		case <-s.done:
			return
		}
	}
}
