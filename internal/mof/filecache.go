package mof

import (
	"errors"
	"fmt"
	"os"
	"sync"
)

// ErrFileCacheClosed is returned by Acquire after Close.
var ErrFileCacheClosed = errors.New("mof: file cache closed")

// FileCache is an LRU cache of open MOF data-file handles. Every fetch
// request names a (MOF, partition) pair and the supplier previously paid an
// os.Open/Close round trip per segment; the cache keeps the hot files open
// so steady-state segment reads are a single pread. Handles are reference
// counted: a file is closed only when it has been evicted (or the cache
// closed) and the last concurrent reader released it, so eviction can never
// yank a descriptor out from under an in-flight ReadAt.
type FileCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*FileHandle
	// lru is the sentinel of an intrusive ring of unreferenced handles
	// (lru.next = most recently used); links live in FileHandle so the
	// acquire/release cycle of a hot file allocates nothing.
	lru FileHandle

	closed                  bool
	hits, misses, evictions int64
}

// FileHandle is one cached open file. Handles are shared: Acquire returns
// the same handle to every concurrent caller of one path, and each caller
// must Release exactly once.
type FileHandle struct {
	cache *FileCache
	path  string
	f     *os.File
	refs  int
	// prev/next link the handle into the cache's LRU ring while
	// unreferenced and cached; both are nil otherwise.
	prev, next *FileHandle
	evicted    bool // close on final release instead of re-entering the LRU
}

// File exposes the open descriptor for offset reads. Callers must not
// Close it — Release returns it to the cache.
//
//jbsvet:borrowed
func (h *FileHandle) File() *os.File { return h.f }

// NewFileCache creates a cache keeping at most max files open. Files held
// by in-flight readers don't count against the cap; the overshoot is
// bounded by reader concurrency.
func NewFileCache(max int) *FileCache {
	if max <= 0 {
		panic("mof: file cache max must be positive")
	}
	c := &FileCache{
		max:     max,
		entries: make(map[string]*FileHandle),
	}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// lruRemove unlinks a handle from the LRU ring. Callers hold c.mu.
func (c *FileCache) lruRemove(h *FileHandle) {
	h.prev.next = h.next
	h.next.prev = h.prev
	h.prev, h.next = nil, nil
}

// lruPushFront links a handle at the most-recently-used end of the ring.
// Callers hold c.mu.
func (c *FileCache) lruPushFront(h *FileHandle) {
	h.prev, h.next = &c.lru, c.lru.next
	h.prev.next = h
	h.next.prev = h
}

// Acquire returns an open handle for path, opening the file on first use
// and bumping its reference count. Concurrent acquirers of one path share
// one descriptor.
func (c *FileCache) Acquire(path string) (*FileHandle, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrFileCacheClosed
	}
	if h, ok := c.entries[path]; ok {
		c.ref(h)
		c.hits++
		fcHits.Inc()
		c.mu.Unlock()
		return h, nil
	}
	c.misses++
	fcMisses.Inc()
	c.mu.Unlock()

	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("mof: open data: %w", err)
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		// Lost the race with Close; don't leak the descriptor.
		_ = f.Close()
		return nil, ErrFileCacheClosed
	}
	if h, ok := c.entries[path]; ok {
		// A concurrent opener won; keep its descriptor.
		c.ref(h)
		c.mu.Unlock()
		_ = f.Close()
		return h, nil
	}
	h := &FileHandle{cache: c, path: path, f: f, refs: 1}
	c.entries[path] = h
	fcOpen.Add(1)
	var evicted []*os.File
	for len(c.entries) > c.max {
		old := c.lru.prev
		if old == &c.lru {
			break // every handle is referenced: tolerate the overshoot
		}
		c.lruRemove(old)
		delete(c.entries, old.path)
		c.evictions++
		fcEvictions.Inc()
		fcOpen.Add(-1)
		evicted = append(evicted, old.f)
	}
	c.mu.Unlock()
	for _, ef := range evicted {
		// Read-side descriptor discarded under capacity pressure; its close
		// error carries no signal for the acquiring caller.
		_ = ef.Close()
	}
	return h, nil
}

// ref bumps a handle's count, removing it from the eviction list while
// referenced. Callers hold c.mu.
func (c *FileCache) ref(h *FileHandle) {
	if h.next != nil {
		c.lruRemove(h)
	}
	h.refs++
}

// Release returns the handle to the cache. The final release of an evicted
// handle closes the file and reports its close error.
func (h *FileHandle) Release() error {
	c := h.cache
	c.mu.Lock()
	if h.refs <= 0 {
		c.mu.Unlock()
		panic("mof: FileHandle released more times than acquired")
	}
	h.refs--
	var closeNow *os.File
	if h.refs == 0 {
		if h.evicted {
			closeNow = h.f
		} else {
			c.lruPushFront(h)
		}
	}
	c.mu.Unlock()
	if closeNow != nil {
		return closeNow.Close()
	}
	return nil
}

// Len returns the number of cached files (referenced or not).
func (c *FileCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns hit, miss, and eviction counts.
func (c *FileCache) Stats() (hits, misses, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}

// Close closes every unreferenced file and marks referenced ones for close
// on their final Release. Subsequent Acquires fail. Returns the first
// close error.
func (c *FileCache) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	fcOpen.Add(int64(-len(c.entries)))
	var toClose []*os.File
	for _, h := range c.entries {
		if h.refs == 0 {
			toClose = append(toClose, h.f)
		} else {
			h.evicted = true // final Release closes it
		}
		if h.next != nil {
			c.lruRemove(h)
		}
	}
	c.entries = make(map[string]*FileHandle)
	c.mu.Unlock()
	var first error
	for _, f := range toClose {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
