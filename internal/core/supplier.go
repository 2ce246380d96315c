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
	// BufferSize is the transport buffer size for response chunks: the
	// largest payload one chunk frame carries. A chunk and its header
	// must fit in one transport frame.
	BufferSize int
	// DataCacheBytes sizes the DataCache.
	DataCacheBytes int64
	// PrefetchBatch is the number of requests served per group turn of the
	// round-robin disk prefetch server.
	PrefetchBatch int
	// XmitWorkers is the number of asynchronous transmission workers.
	XmitWorkers int
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

// The supplier's cache sizes: MOF indexes kept parsed, and MOF data files
// kept open.
const (
	indexCacheEntries = 256
	fileCacheEntries  = 128
)

func (c *SupplierConfig) applyDefaults() error {
	if c.Transport == nil {
		return errors.New("core: supplier needs a transport")
	}
	if c.Addr == "" {
		return errors.New("core: supplier needs an address")
	}
	if err := errors.Join(
		knob("BufferSize", &c.BufferSize, transport.DefaultBufferSize),
		knob("DataCacheBytes", &c.DataCacheBytes, 64<<20),
		knob("PrefetchBatch", &c.PrefetchBatch, 4),
		knob("XmitWorkers", &c.XmitWorkers, 2),
	); err != nil {
		return err
	}
	if c.BufferSize > transport.MaxFrameSize-sizedChunkHeaderLen {
		return fmt.Errorf("core: supplier BufferSize %d leaves no room for a chunk header in a %d-byte frame",
			c.BufferSize, transport.MaxFrameSize)
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

// knob applies the one rule every numeric knob follows: zero means def,
// and a negative value is rejected by name.
func knob[T int | int64](name string, v *T, def T) error {
	if *v < 0 {
		return fmt.Errorf("core: supplier %s %d must not be negative", name, *v)
	}
	if *v == 0 {
		*v = def
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

// The supplier's counters, one per SupplierStats field and in its order;
// count moves a counter and its process-wide metric together.
const (
	nRequests = iota
	nBytesServed
	nDiskReads
	nCacheHits
	nGroupTurns
	nErrors
	nDrainSheds
	nCancels
	nCounters
)

// counterMetric is each counter's process-wide metric. Disk reads and
// cache hits have none of their own: mof and the DataCache count those.
var counterMetric = [nCounters]*metrics.Counter{
	nRequests: supRequests, nBytesServed: supBytes, nGroupTurns: supGroupTurns,
	nErrors: supErrors, nDrainSheds: supDrainSheds, nCancels: supCancels,
}

// reqState is where a request is in the pipeline. It is a state, not a
// nil check on the staged bytes, because an empty partition stages a
// valid zero-length segment.
type reqState uint8

const (
	reqNew     reqState = iota // decoded by connLoop, not yet admitted
	reqQueued                  // admitted: in reqCh or a prefetch group
	reqStaged                  // holds its staging pin: handed to, or waiting in, xmitCh
	reqSending                 // a transmit worker is writing its chunks
	reqDone                    // retired; the record is back in the pool
)

// depthGauge is the gauge that counts the requests in each state.
var depthGauge = [reqDone + 1]*metrics.Gauge{
	reqQueued: supQueueDepth, reqStaged: supXmitDepth, reqSending: supXmitDepth,
}

// enter moves r to state st, carrying the depth gauges along.
func enter(r *supplierReq, st reqState) {
	if g := depthGauge[r.state]; g != nil {
		g.Add(-1)
	}
	if g := depthGauge[st]; g != nil {
		g.Add(1)
	}
	r.state = st
}

// reqOutcome is the event that retires a request; it names the terminal
// frame the request's merger gets.
type reqOutcome uint8

const (
	reqServed     reqOutcome = iota // its last chunk went out: nothing more
	reqFailed                       // unresolvable or unreadable: an error chunk
	reqSendFailed                   // its connection refused a chunk: nothing
	reqCancelled                    // a CANCEL withdrew it: the cancelled ack
	reqDrainShed                    // the supplier is draining: SHED
	reqLedgerShed                   // the ledger is past its hard limit: SHED
	reqClosed                       // the supplier closed: nothing
)

// supplierReq is one fetch request's trip through the pipeline.
type supplierReq struct {
	conn  *supplierConn
	id    uint64
	task  string
	part  int
	path  string // MOF data file
	entry mof.IndexEntry
	state reqState
	// seg is the staged segment. stage's Pin or Put pins it in the
	// DataCache, the transmit worker sends from that same pin, and retire
	// drops it.
	seg []byte
	// charge is the byte charge held against the admission ledger until
	// retire; zero when flow control is off.
	charge int64
}

// supplierReqPool recycles request records between fetches; retire puts
// every record back.
var supplierReqPool = sync.Pool{New: func() any { return new(supplierReq) }}

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
	// pipeline checkpoint (stage, or before any chunk is sent).
	// nCancelled mirrors len(cancelled) so the per-chunk check costs one
	// atomic load — not a lock — while no cancel is pending.
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

// errXmitCancelled reports a transmission stopped by a CANCEL frame before
// or between chunks. Internal to the transmit path — the merger sees a
// truncated (or no) stream followed by the cancelled ack.
var errXmitCancelled = errors.New("transmit cancelled")

// errFetchCancelled is the terminal ack for a fetch withdrawn by a
// CANCEL frame. The merger's pending entry is already gone; the ack's
// only job is to retire its late-chunk (duplicate byte) tracking.
var errFetchCancelled = errors.New("cancelled by merger")

func (sc *supplierConn) sendChunks(id uint64, data []byte, bufSize int) error {
	sc.sendMu.Lock()
	defer sc.sendMu.Unlock()
	// The first chunk announces the segment's total size (flagSized) so the
	// merger can allocate its reassembly buffer exactly once.
	rest, flags := data, flagSized
	for {
		if sc.takeCancelled(id) {
			// The merger already retired this id, so a truncated stream is
			// fine: the cancelled ack is what closes its tracking.
			return errXmitCancelled
		}
		chunk := rest[:min(len(rest), bufSize)]
		rest = rest[len(chunk):]
		if len(rest) == 0 {
			flags |= flagLast
		}
		hdr := appendChunkHeader(sc.hdr[:0], id, flags, int64(len(data)), chunk)
		sc.vecs = append(sc.vecs[:0], hdr, chunk)
		if err := transport.SendVec(sc.conn, sc.vecs...); err != nil {
			return err
		}
		if len(rest) == 0 {
			return nil
		}
		flags = 0
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

	counts [nCounters]atomic.Int64 // see count

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
		icache: mof.NewIndexCache(indexCacheEntries),
		dcache: NewDataCache(cfg.DataCacheBytes),
		fcache: mof.NewFileCache(fileCacheEntries),
		pool:   bufpool.Default(),
		reqCh:  make(chan *supplierReq, 1024),
		xmitCh: make(chan *supplierReq, 256),
		done:   make(chan struct{}),
		conns:  make(map[transport.Conn]*supplierConn),
	}
	if cfg.Flow != nil {
		s.ledger = flow.NewLedger(*cfg.Flow)
		s.drr = flow.NewDRR(cfg.Flow.Weights)
		s.unregister = flow.Register(s)
	}
	s.wg.Add(2 + cfg.XmitWorkers)
	go s.acceptLoop()
	go s.prefetchLoop()
	for range cfg.XmitWorkers {
		go s.xmitLoop()
	}
	return s, nil
}

// Addr returns the bound listen address.
func (s *MOFSupplier) Addr() string { return s.lis.Addr() }

// count adds n to one of the supplier's counters and to its metric.
func (s *MOFSupplier) count(c int, n int64) {
	s.counts[c].Add(n)
	if m := counterMetric[c]; m != nil {
		m.Add(n)
	}
}

// Stats snapshots the supplier's counters.
func (s *MOFSupplier) Stats() SupplierStats {
	n := func(c int) int64 { return s.counts[c].Load() }
	return SupplierStats{
		Requests: n(nRequests), BytesServed: n(nBytesServed),
		DiskReads: n(nDiskReads), CacheHits: n(nCacheHits),
		GroupTurns: n(nGroupTurns), Errors: n(nErrors),
		DrainSheds: n(nDrainSheds), Cancels: n(nCancels),
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

// retire is a request's one exit. Whatever ends its trip — served,
// failed, cancelled, shed or cut off by Close — it settles, in this
// order, everything the request holds:
//   - the staging pin, if it was staged;
//   - the terminal frame: an error chunk, the cancelled ack, SHED, or none;
//   - the counter that records the outcome, with its metric;
//   - the ledger charge; a release that ends a shedding episode
//     broadcasts one credit to every connected merger;
//   - its queue or xmit depth gauge;
//   - the record, back to the pool;
//   - its pipeline occupancy, last, so Inflight() reading 0 means every
//     request's accounting has settled. The last one out of a drain
//     completes it.
//
// It returns the terminal frame's send error. connLoop drops a connection
// that cannot take an answer; the pipeline's exits leave that to the
// connection's reader.
func (s *MOFSupplier) retire(r *supplierReq, o reqOutcome, err error) error {
	if r.state == reqStaged || r.state == reqSending {
		s.dcache.Unpin(r.task, r.part)
	}
	var ferr error
	switch o {
	case reqServed:
		s.count(nBytesServed, int64(len(r.seg)))
	case reqFailed:
		s.count(nErrors, 1)
		ferr = r.conn.sendError(r.id, err)
	case reqSendFailed:
		s.count(nErrors, 1)
	case reqCancelled:
		ferr = r.conn.sendError(r.id, errFetchCancelled)
	case reqDrainShed:
		s.count(nDrainSheds, 1)
		fallthrough
	case reqLedgerShed:
		ferr = r.conn.sendShed(r.id, s.shedRetryAfter())
	}
	if s.ledger != nil && r.charge != 0 && s.ledger.Release(r.charge) {
		s.grantCredits()
	}
	enter(r, reqDone)
	*r = supplierReq{} // drop conn/string references before pooling
	supplierReqPool.Put(r)
	if s.inflight.Add(-1) == 0 && s.draining.Load() {
		s.drainMu.Lock()
		if s.drainCh != nil {
			s.closeDrainLocked()
		}
		s.drainMu.Unlock()
	}
	return ferr
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

// Close stops the supplier and its connections, retires every request
// still inside the pipeline, drains the DataCache back to the buffer
// pool, and closes the cached file handles.
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
	// The prefetch server retired its groups and the transmit workers the
	// staged requests they found; these are what was handed over after
	// the consumer's last look.
	s.retireAll(s.reqCh)
	s.retireAll(s.xmitCh)
	s.dcache.Drain()
	return s.fcache.Close()
}

// retireAll retires, as closed, every request waiting in ch.
func (s *MOFSupplier) retireAll(ch chan *supplierReq) {
	for {
		select {
		case r := <-ch:
			s.retire(r, reqClosed, nil)
		default:
			return
		}
	}
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

// connLoop reads fetch requests and CANCEL frames from one client.
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
		// A CANCEL is a hedging merger withdrawing a fetch whose race is
		// decided. It is told apart ahead of the request decoder, which
		// treats any non-request frame as a protocol violation.
		b := l.Bytes()
		cancel := len(b) > 0 && b[0] == msgCancel
		var req fetchRequest
		if cancel {
			req.ID, err = decodeCancel(b)
		} else {
			req, err = decodeFetchRequestInterned(b, intern)
		}
		l.Release() // the decoders copy (or intern) what they keep
		if err != nil {
			if errors.Is(err, ErrCorruptFrame) {
				supCorruptFrames.Inc()
			}
			s.count(nErrors, 1)
			return // protocol violation: drop the connection
		}
		if cancel {
			sc.markCancelled(req.ID)
			s.count(nCancels, 1)
			continue
		}
		s.count(nRequests, 1)
		if !s.admit(sc, req) {
			return
		}
	}
}

// admit resolves one request and queues it for the prefetch server, or
// retires it on the spot: unresolvable (an error chunk), or shed by a
// drain or by the ledger (SHED). A shed charges nothing: the merger backs
// off and retries, and the connection stays up. admit reports false when
// the connection could not take the answer or the supplier is closing.
func (s *MOFSupplier) admit(sc *supplierConn, req fetchRequest) bool {
	r := supplierReqPool.Get().(*supplierReq)
	r.conn, r.id = sc, req.ID
	// Occupancy is claimed before the drain check: Drain's store of the
	// latch and its read of inflight are both sequentially consistent
	// atomics, so either this request sees the latch (and sheds) or Drain
	// sees the occupancy (and waits for it). No request can slip into the
	// pipeline unseen by a drain.
	s.inflight.Add(1)
	o, err := reqFailed, s.resolve(r, req)
	switch {
	case err != nil:
	case s.draining.Load():
		o = reqDrainShed
	case s.ledger != nil && s.ledger.Admit(r.entry.Length) == flow.Shed:
		o = reqLedgerShed
	default:
		if s.ledger != nil {
			r.charge = r.entry.Length
		}
		enter(r, reqQueued)
		select {
		case s.reqCh <- r:
			return true
		case <-s.done:
			s.retire(r, reqClosed, nil)
			return false
		}
	}
	return s.retire(r, o, err) == nil
}

// resolve locates the requested segment via the IndexCache.
func (s *MOFSupplier) resolve(r *supplierReq, req fetchRequest) error {
	dataPath, indexPath, err := s.lookup(req.MapTask)
	if err != nil {
		return fmt.Errorf("unknown MOF %s: %w", req.MapTask, err)
	}
	ix, err := s.icache.Get(indexPath)
	if err != nil {
		return fmt.Errorf("index for %s: %w", req.MapTask, err)
	}
	entry, err := ix.Entry(int(req.Partition))
	if err != nil {
		return fmt.Errorf("partition %d of %s: %w", req.Partition, req.MapTask, err)
	}
	r.task, r.part, r.path, r.entry = req.MapTask, int(req.Partition), dataPath, entry
	return nil
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
	clear(g.reqs)
	*g = mofGroup{reqs: g.reqs[:0]}
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
// ring advances, so one heavy job cannot starve the others. On Close it
// retires every request still waiting in a group.
func (s *MOFSupplier) prefetchLoop() {
	defer s.wg.Done()
	groups := make(map[string]*mofGroup)  // task -> group
	rings := make(map[string]*tenantRing) // tenant -> its group ring
	var free []*mofGroup                  // drained groups, recycled
	if s.drr == nil {
		rings[""] = &tenantRing{} // the one ring when flow is off
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
			if s.cfg.Tenant != nil {
				g.tenant = s.cfg.Tenant(r.task)
			}
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
	// take files arrivals into their groups. With block set it waits for
	// the first one; then it takes whatever else has arrived without
	// blocking, so grouping sees bursts together. It reports false once
	// the supplier is closing.
	take := func(block bool) bool {
		for {
			var r *supplierReq
			if block {
				select {
				case r = <-s.reqCh:
				case <-s.done:
					return false
				}
			} else {
				select {
				case r = <-s.reqCh:
				case <-s.done:
					return false
				default:
					return true
				}
			}
			add(r)
			block = false
		}
	}

	for idle := true; take(idle); {
		idle = false
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
				// busy-spinning a core.
				idle = true
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
		batch := min(s.cfg.PrefetchBatch, g.pending())
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
		// exactly while it has pending requests. The cost is read before
		// stage, whose exits may recycle the record.
		s.count(nGroupTurns, 1)
		var batchCost int64
		for _, r := range taken {
			batchCost += flow.Cost(r.entry.Length)
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
		idle = len(groups) == 0
	}
	for _, g := range groups {
		for _, r := range g.reqs[g.head:] {
			s.retire(r, reqClosed, nil)
		}
	}
}

// stage pins one segment in the DataCache — a resident hit, or a disk
// read that Put stages there — and hands the request, carrying that one
// pin, to the transmit workers.
func (s *MOFSupplier) stage(r *supplierReq) {
	select {
	case <-s.done:
		// No new pins once Close has begun: a Put waiting on capacity
		// could outlive the transmit workers that would free it.
		s.retire(r, reqClosed, nil)
		return
	default:
	}
	if r.conn.takeCancelled(r.id) {
		// Withdrawn before the disk read — the whole point of CANCEL:
		// the loser of a hedge race costs no I/O at all.
		s.retire(r, reqCancelled, nil)
		return
	}
	seg, ok := s.dcache.Pin(r.task, r.part)
	if ok {
		s.count(nCacheHits, 1)
	} else {
		lease, err := mof.ReadSegmentLease(s.fcache, s.pool, r.path, r.entry)
		if err != nil {
			s.retire(r, reqFailed, err)
			return
		}
		s.count(nDiskReads, 1)
		seg = s.dcache.Put(r.task, r.part, lease) // the cache owns the lease now
	}
	r.seg = seg
	enter(r, reqStaged)
	tracer.Mark(r.task, r.part, metrics.StageStaged)
	select {
	case s.xmitCh <- r:
	case <-s.done:
		s.retire(r, reqClosed, nil)
	}
}

// xmitLoop transmits staged segments asynchronously. On Close it retires
// the requests still staged in xmitCh, whose pins a prefetch server
// blocked in Put may be waiting on.
func (s *MOFSupplier) xmitLoop() {
	defer s.wg.Done()
	for {
		select {
		case r := <-s.xmitCh:
			enter(r, reqSending)
			tracer.Mark(r.task, r.part, metrics.StageXmit)
			switch err := r.conn.sendChunks(r.id, r.seg, s.cfg.BufferSize); {
			case err == nil:
				s.retire(r, reqServed, nil)
			case errors.Is(err, errXmitCancelled):
				s.retire(r, reqCancelled, nil)
			default:
				s.retire(r, reqSendFailed, nil)
			}
		case <-s.done:
			s.retireAll(s.xmitCh)
			return
		}
	}
}
