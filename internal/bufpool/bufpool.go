// Package bufpool provides the size-classed, leak-accounted buffer pool
// behind JBS's allocation-free data path. Segment bytes flow from the
// MOFSupplier's disk reads through the transport into the NetMerger in
// leased buffers: a Lease is acquired from a Pool, may be shared by
// concurrent readers via Retain, and returns its buffer to the pool when
// the last holder calls Release. The pool keeps gets/puts/outstanding
// counters so tests can prove no lease leaked (see LeakCheck).
//
// The paper's Fig. 11 buffer-size analysis presumes transport buffers are
// a managed, reused resource; this package is that resource for every
// backend, with sync.Pool recycling per size class — four classes to the
// octave, so a lease is backed by at most a quarter more than it asked for.
package bufpool

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

const (
	// minClassBits is the smallest size class, 1 KB: request frames and
	// chunk headers land here.
	minClassBits = 10
	// maxClassBits is the largest pooled class, 16 MB: a shuffle segment at
	// the paper's scale. Larger leases are allocated directly and returned
	// to the garbage collector on release.
	maxClassBits = 24
	// stepBits splits every doubling into 1<<stepBits classes. With classes
	// at powers of two only, a 1 MiB-class buffer backed every 600 KB
	// shuffle segment and a 256 KiB one every 128 KiB frame (its payload
	// plus a 22-byte header): up to twice the memory held, cleared and
	// first touched. In quarter steps the excess is under 25%.
	stepBits   = 2
	numClasses = 1 + (maxClassBits-minClassBits)<<stepBits
)

// classSize returns the buffer size of class c: 1 KiB for class 0, then
// 1.25, 1.5, 1.75 and 2 times each power of two up to 16 MiB.
func classSize(c int) int {
	if c == 0 {
		return 1 << minClassBits
	}
	base := 1 << (minClassBits + (c-1)>>stepBits)
	return base + ((c-1)&(1<<stepBits-1)+1)*(base>>stepBits)
}

// Stats is a snapshot of a Pool's counters.
type Stats struct {
	// Gets counts leases handed out (including adopted and oversize ones).
	Gets int64
	// Puts counts leases fully released.
	Puts int64
	// Misses counts Gets that had to allocate because the class was empty.
	Misses int64
	// Oversize counts Gets beyond the largest class (direct allocations).
	Oversize int64
	// Outstanding is Gets - Puts: leases currently held somewhere.
	Outstanding int64
}

// Pool is a size-classed buffer pool. The zero value is not usable; use
// New. Pools are safe for concurrent use.
type Pool struct {
	// classes[i] recycles *Lease values whose buffer is classSize(i)
	// bytes; recycling the Lease together with its buffer keeps the steady
	// state free of both buffer and header allocations.
	classes [numClasses]sync.Pool

	gets     atomic.Int64
	puts     atomic.Int64
	misses   atomic.Int64
	oversize atomic.Int64

	// classGets/classPuts split the lease accounting per size class so a
	// leak's size class is visible (index numClasses covers adopted and
	// oversize leases, whose class is -1).
	classGets [numClasses + 1]atomic.Int64
	classPuts [numClasses + 1]atomic.Int64
}

// classIndex maps a Lease.class to its accounting slot.
func classIndex(class int) int {
	if class < 0 {
		return numClasses
	}
	return class
}

// ClassStat is one size class's lease accounting.
type ClassStat struct {
	// Size is the class's buffer size in bytes, or -1 for the
	// adopted/oversize bucket.
	Size int
	// Gets and Puts count leases handed out of / returned to this class.
	Gets, Puts int64
}

// Outstanding is Gets - Puts: this class's leases currently held.
func (s ClassStat) Outstanding() int64 { return s.Gets - s.Puts }

// Label names the class for metrics and debug output ("64KiB",
// "1.25KiB", "2MiB", "oversize").
func (s ClassStat) Label() string {
	if s.Size < 0 {
		return "oversize"
	}
	if s.Size%(1<<20) == 0 {
		return fmt.Sprintf("%dMiB", s.Size>>20)
	}
	return fmt.Sprintf("%gKiB", float64(s.Size)/1024) // exact: classes are multiples of 256 bytes
}

// ClassStats snapshots the per-size-class lease accounting; the last
// entry is the adopted/oversize bucket.
func (p *Pool) ClassStats() []ClassStat {
	out := make([]ClassStat, numClasses+1)
	for i := 0; i <= numClasses; i++ {
		size := -1
		if i < numClasses {
			size = classSize(i)
		}
		out[i] = ClassStat{Size: size, Gets: p.classGets[i].Load(), Puts: p.classPuts[i].Load()}
	}
	return out
}

// New creates an empty pool.
func New() *Pool { return &Pool{} }

// defaultPool serves the transports and any caller that does not inject
// its own pool.
var defaultPool = New()

// Default returns the process-wide shared pool.
func Default() *Pool { return defaultPool }

// classFor returns the smallest class index whose buffers hold n bytes, or
// -1 when n exceeds the largest class.
func classFor(n int) int {
	if n <= 1<<minClassBits {
		return 0
	}
	k := bits.Len(uint(n - 1)) // 1<<(k-1) < n <= 1<<k
	if k > maxClassBits {
		return -1
	}
	base := 1 << (k - 1)
	step := base >> stepBits
	return (k-1-minClassBits)<<stepBits + (n-base+step-1)/step
}

// ClassSize returns the size of the buffer behind a Get(n) lease: n rounded
// up to its size class, or n itself beyond the largest class.
func ClassSize(n int) int {
	if c := classFor(n); c >= 0 {
		return classSize(c)
	}
	return n
}

// Get leases a buffer whose Bytes() is exactly n long (backed by the
// enclosing size class). The lease starts with one reference; the caller
// owns it and must Release it exactly once, or hand ownership on.
func (p *Pool) Get(n int) *Lease {
	p.gets.Add(1)
	c := classFor(n)
	p.classGets[classIndex(c)].Add(1)
	if c < 0 {
		p.oversize.Add(1)
		l := &Lease{pool: p, full: make([]byte, n), n: n, class: -1}
		l.refs.Store(1)
		return l
	}
	if v := p.classes[c].Get(); v != nil {
		l := v.(*Lease)
		l.n = n
		l.refs.Store(1)
		return l
	}
	p.misses.Add(1)
	l := &Lease{pool: p, full: make([]byte, classSize(c)), n: n, class: c}
	l.refs.Store(1)
	return l
}

// Adopt wraps a caller-owned slice in a lease so non-pooled producers (a
// transport backend without a pooled receive path) fit the lease/release
// discipline. The buffer is not recycled into a class on release — it came
// from outside — but the lease still participates in leak accounting.
func (p *Pool) Adopt(buf []byte) *Lease {
	p.gets.Add(1)
	p.classGets[numClasses].Add(1)
	l := &Lease{pool: p, full: buf, n: len(buf), class: -1}
	l.refs.Store(1)
	return l
}

// Stats snapshots the counters.
func (p *Pool) Stats() Stats {
	gets, puts := p.gets.Load(), p.puts.Load()
	return Stats{
		Gets:        gets,
		Puts:        puts,
		Misses:      p.misses.Load(),
		Oversize:    p.oversize.Load(),
		Outstanding: gets - puts,
	}
}

// Outstanding returns the number of leases not yet fully released.
func (p *Pool) Outstanding() int64 { return p.gets.Load() - p.puts.Load() }

// LeakCheck returns an error when leases are outstanding. Tests call it
// after draining the code under test: a lease acquired without a matching
// final Release fails the check.
func (p *Pool) LeakCheck() error {
	if n := p.Outstanding(); n != 0 {
		return fmt.Errorf("bufpool: %d leases outstanding (gets=%d puts=%d)",
			n, p.gets.Load(), p.puts.Load())
	}
	return nil
}

// poison makes every final Release overwrite the buffer it returns.
var poison atomic.Bool

// PoisonReleased is a switch for tests: while on, the final Release of a
// lease fills its whole buffer with 0xA5 before the pool can hand it out
// again, so a consumer that reads lent bytes after giving them back sees
// garbage at once instead of whatever the next user happens to write.
func PoisonReleased(on bool) { poison.Store(on) }

// Lease is one leased buffer. It starts with a single reference held by
// the Get/Adopt caller; Retain adds readers, Release drops one, and the
// final Release returns the buffer to its size class. After the final
// Release the lease and its bytes must not be touched — the buffer is
// immediately reusable by another Get.
type Lease struct {
	pool  *Pool
	full  []byte // class-sized backing array
	n     int    // logical length: Bytes() is full[:n]
	class int    // size class, or -1 for adopted/oversize buffers
	refs  atomic.Int32
}

// Bytes returns the leased buffer's logical contents.
func (l *Lease) Bytes() []byte { return l.full[:l.n] }

// Len returns the logical length.
func (l *Lease) Len() int { return l.n }

// SetLen resizes the logical length within the backing capacity (the
// size class, cap(Bytes())); it panics beyond it. A lease never grows: a
// larger buffer is a new Get.
func (l *Lease) SetLen(n int) {
	if n < 0 || n > len(l.full) {
		panic(fmt.Sprintf("bufpool: SetLen(%d) outside capacity %d", n, len(l.full)))
	}
	l.n = n
}

// Retain adds a reference for another concurrent holder (a second reader
// of a cached segment). Each Retain obligates one more Release.
func (l *Lease) Retain() {
	if l.refs.Add(1) <= 1 {
		panic("bufpool: Retain of a released lease")
	}
}

// Release drops one reference. The last Release returns the buffer to its
// size class; releasing more times than retained panics — it means two
// holders both believed they owned the final reference.
func (l *Lease) Release() {
	r := l.refs.Add(-1)
	if r > 0 {
		return
	}
	if r < 0 {
		panic("bufpool: Release without matching Get/Retain")
	}
	if poison.Load() {
		for i := range l.full {
			l.full[i] = 0xA5
		}
	}
	p := l.pool
	p.puts.Add(1)
	p.classPuts[classIndex(l.class)].Add(1)
	if l.class >= 0 {
		p.classes[l.class].Put(l)
	}
}
