package transport

import (
	"container/list"
	"sync"
)

// ConnCache keeps established connections for reuse, since connection setup
// is expensive (especially for RDMA, Section IV-A). It holds at most max
// active connections; when the threshold is reached the least recently used
// connection is torn down. A client's first fetch request to a node
// triggers the dial, exactly as in the paper.
type ConnCache struct {
	tr  Transport
	max int

	mu    sync.Mutex
	conns map[string]*list.Element // addr -> element in lru
	lru   *list.List               // front = most recently used
	// dialing deduplicates concurrent dials to the same address.
	dialing map[string]*sync.WaitGroup
	// closed is set by Close and never cleared: a cache that kept
	// handing out connections after its owner shut it down would leave
	// them open for ever, with whoever reads them parked for ever.
	closed bool

	hits, misses, evictions int
}

type cacheEntry struct {
	addr string
	conn Conn
}

// NewConnCache builds a cache over transport tr with the given connection
// limit (the paper uses 512).
func NewConnCache(tr Transport, max int) *ConnCache {
	if max <= 0 {
		panic("transport: cache max must be positive")
	}
	return &ConnCache{
		tr:      tr,
		max:     max,
		conns:   make(map[string]*list.Element),
		lru:     list.New(),
		dialing: make(map[string]*sync.WaitGroup),
	}
}

// Get returns a cached connection to addr, dialing on first use. Concurrent
// Gets for the same address share one dial. After Close it returns
// ErrConnClosed, and a dial that Close overtook is closed, not cached. The
// cache keeps the connection; callers must not Close it.
//
//jbsvet:borrowed
func (c *ConnCache) Get(addr string) (Conn, error) {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, ErrConnClosed
		}
		if el, ok := c.conns[addr]; ok {
			c.lru.MoveToFront(el)
			c.hits++
			ccHits.Inc()
			conn := el.Value.(*cacheEntry).conn
			c.mu.Unlock()
			return conn, nil
		}
		if wg, ok := c.dialing[addr]; ok {
			c.mu.Unlock()
			wg.Wait()
			continue // re-check the table
		}
		wg := &sync.WaitGroup{}
		wg.Add(1)
		c.dialing[addr] = wg
		c.misses++
		ccMisses.Inc()
		c.mu.Unlock()

		conn, err := c.tr.Dial(addr)

		c.mu.Lock()
		delete(c.dialing, addr)
		wg.Done()
		if err != nil {
			c.mu.Unlock()
			return nil, err
		}
		if c.closed {
			c.mu.Unlock()
			_ = conn.Close() // never used; nothing its close error could say
			return nil, ErrConnClosed
		}
		el := c.lru.PushFront(&cacheEntry{addr: addr, conn: conn})
		c.conns[addr] = el
		ccActive.Add(1)
		var evicted []Conn
		for c.lru.Len() > c.max {
			back := c.lru.Back()
			entry := back.Value.(*cacheEntry)
			c.lru.Remove(back)
			delete(c.conns, entry.addr)
			evicted = append(evicted, entry.conn)
			c.evictions++
			ccEvictions.Inc()
			ccActive.Add(-1)
		}
		c.mu.Unlock()
		for _, ev := range evicted {
			// Eviction teardown: the connection is being discarded, so its
			// close error carries no signal for the caller's fetch.
			_ = ev.Close()
		}
		return conn, nil
	}
}

// Invalidate removes and closes the connection to addr (e.g. after an I/O
// error) so the next Get re-dials.
func (c *ConnCache) Invalidate(addr string) {
	c.mu.Lock()
	el, ok := c.conns[addr]
	if ok {
		c.lru.Remove(el)
		delete(c.conns, addr)
		ccActive.Add(-1)
	}
	c.mu.Unlock()
	if ok {
		// The connection already failed; its close error adds nothing.
		_ = el.Value.(*cacheEntry).conn.Close()
	}
}

// InvalidateOnError invalidates the connection to addr unless err is a
// transient backpressure condition (see Transient): a shed peer is
// healthy, and re-dialing it would only add connection churn to an
// already overloaded node. It reports whether the connection was
// invalidated.
func (c *ConnCache) InvalidateOnError(addr string, err error) bool {
	if Transient(err) {
		return false
	}
	c.Invalidate(addr)
	return true
}

// InvalidateConn invalidates addr only while conn is still the cached
// connection. A failure report races with recovery: by the time a reader
// observes an I/O error and reports it, the address may already hold a
// freshly dialed connection, and tearing that one down would turn one
// failure into two. Transient errors never invalidate (see
// InvalidateOnError). Reports whether the connection was removed.
//
//jbsvet:ignore closeflow conn is the cache's, lent by Get; it is closed only while it is still the cached entry
func (c *ConnCache) InvalidateConn(addr string, conn Conn, err error) bool {
	if Transient(err) {
		return false
	}
	c.mu.Lock()
	el, ok := c.conns[addr]
	if ok && el.Value.(*cacheEntry).conn == conn {
		c.lru.Remove(el)
		delete(c.conns, addr)
		ccActive.Add(-1)
	} else {
		ok = false
	}
	c.mu.Unlock()
	if ok {
		// The connection already failed; its close error adds nothing.
		_ = conn.Close()
	}
	return ok
}

// Peek returns the cached connection to addr without dialing or touching
// the LRU order. ok is false when no connection is cached. Like Get's, the
// connection stays the cache's.
//
//jbsvet:borrowed
func (c *ConnCache) Peek(addr string) (Conn, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.conns[addr]; ok {
		return el.Value.(*cacheEntry).conn, true
	}
	return nil, false
}

// Len returns the number of cached connections.
func (c *ConnCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats reports cache hits, misses, and evictions.
func (c *ConnCache) Stats() (hits, misses, evictions int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}

// Close tears down every cached connection, returning the first close
// error encountered, and leaves the cache closed for good (see Get).
func (c *ConnCache) Close() error {
	c.mu.Lock()
	c.closed = true
	var conns []Conn
	for el := c.lru.Front(); el != nil; el = el.Next() {
		conns = append(conns, el.Value.(*cacheEntry).conn)
	}
	c.lru.Init()
	c.conns = make(map[string]*list.Element)
	ccActive.Add(int64(-len(conns)))
	c.mu.Unlock()
	var first error
	for _, conn := range conns {
		if err := conn.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
