// Package metrics is the shuffle path's dependency-free observability
// registry. The paper argues its case entirely through measurement —
// per-stage shuffle timings, connection counts, cache behaviour (Figs.
// 5–12) — and this package is the runtime counterpart: every layer of the
// data path (bufpool, transport, mof, core) registers counters, gauges,
// and fixed-bucket log-scale histograms here, and cmd/jbsrun exposes the
// registry through the opt-in /debug/jbs endpoints (internal/debug).
//
// Hot-path cost is the design constraint: a Counter.Add or
// Histogram.Observe is one or two atomic adds with no allocation, metric
// handles are resolved at registration time (package init), never by name
// in the data path, and the per-segment Tracer is a single atomic load
// when disabled. The SegmentFetchPath benchmark's allocs/op is the
// enforcement: instrumentation must not move it.
//
// Metric names follow the Prometheus convention (snake_case, _total for
// counters, unit suffix for histograms) and may carry a literal label set
// in the name ("jbs_merger_inflight{node=\"10.0.0.7:9010\"}"); the
// registry treats the full string as the key and the text exporter splits
// it back apart. See docs/OBSERVABILITY.md for the catalogue.
package metrics

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind classifies a registered metric.
type Kind uint8

// The metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE keyword.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing count. All methods are safe for
// concurrent use and allocation-free.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an instantaneous value that can move both ways. All methods
// are safe for concurrent use and allocation-free.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Mirror is an int64 its owner reads under its own lock, copied into an
// optional registry Gauge on every change. Add and Set move both halves,
// so no code can move one without the other. A Mirror is not safe for
// concurrent use — the owner's lock guards it — and only the gauge is read
// from outside.
type Mirror struct {
	v int64
	g *Gauge
}

// NewMirror returns a zero value mirrored into g (nil: unmirrored).
func NewMirror(g *Gauge) Mirror { return Mirror{g: g} }

// Add moves the value by n, and the gauge by n.
func (m *Mirror) Add(n int64) {
	m.v += n
	if m.g != nil {
		m.g.Add(n)
	}
}

// Set replaces the value, and sets the gauge to it.
func (m *Mirror) Set(n int64) {
	m.v = n
	if m.g != nil {
		m.g.Set(n)
	}
}

// Load returns the value.
func (m *Mirror) Load() int64 { return m.v }

// HistBuckets is the fixed bucket count of every histogram: bucket i
// counts observations in (2^(i-1), 2^i], bucket 0 counts v <= 1, and the
// last bucket absorbs everything larger than 2^(HistBuckets-2) (it prints
// as le="+Inf").
const HistBuckets = 64

// Histogram counts observations into fixed log2-scale buckets. The value
// domain is the caller's (nanoseconds for latencies, bytes for sizes);
// buckets cover the whole int64 range so no configuration is needed, and
// Observe is a few atomic adds with no allocation.
type Histogram struct {
	buckets [HistBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// histBucketFor returns the bucket index for v: the smallest i with
// v <= 2^i, clamped to the overflow bucket.
func histBucketFor(v int64) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len64(uint64(v - 1)) // v in (2^(b-1), 2^b]
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.buckets[histBucketFor(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// metricEntry is one registered metric of any kind.
type metricEntry struct {
	name string
	unit string
	help string
	kind Kind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() int64 // counter/gauge backed by a callback
}

// Registry holds named metrics. Registration is idempotent by name:
// asking twice for the same counter returns the same handle, so package
// init order never matters. Lookups happen at registration time only —
// the returned handles are plain atomics with no registry involvement.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*metricEntry
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{entries: make(map[string]*metricEntry)}
}

// defaultRegistry serves every package that does not inject its own.
var defaultRegistry = New()

// Default returns the process-wide shared registry.
func Default() *Registry { return defaultRegistry }

// register returns the entry for name, creating it with mk on first use.
// A name re-registered as a different kind panics: two packages fighting
// over one name is a programming error worth failing loudly on.
func (r *Registry) register(name, unit, help string, kind Kind, mk func(e *metricEntry)) *metricEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("metrics: %s re-registered as %s (was %s)", name, kind, e.kind))
		}
		return e
	}
	e := &metricEntry{name: name, unit: unit, help: help, kind: kind}
	mk(e)
	r.entries[name] = e
	return e
}

// Counter returns the named counter, registering it on first use.
func (r *Registry) Counter(name, unit, help string) *Counter {
	e := r.register(name, unit, help, KindCounter, func(e *metricEntry) { e.counter = &Counter{} })
	if e.counter == nil {
		panic(fmt.Sprintf("metrics: %s is a callback counter, not a settable one", name))
	}
	return e.counter
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name, unit, help string) *Gauge {
	e := r.register(name, unit, help, KindGauge, func(e *metricEntry) { e.gauge = &Gauge{} })
	if e.gauge == nil {
		panic(fmt.Sprintf("metrics: %s is a callback gauge, not a settable one", name))
	}
	return e.gauge
}

// Histogram returns the named histogram, registering it on first use.
func (r *Registry) Histogram(name, unit, help string) *Histogram {
	e := r.register(name, unit, help, KindHistogram, func(e *metricEntry) { e.hist = &Histogram{} })
	return e.hist
}

// CounterFunc registers a counter whose value is read from fn at snapshot
// time — for sources that already keep their own atomic counters (the
// bufpool's gets/puts) where double-counting in the hot path would be
// waste. fn must be safe for concurrent calls.
func (r *Registry) CounterFunc(name, unit, help string, fn func() int64) {
	r.register(name, unit, help, KindCounter, func(e *metricEntry) { e.fn = fn })
}

// GaugeFunc registers a gauge whose value is read from fn at snapshot
// time. fn must be safe for concurrent calls.
func (r *Registry) GaugeFunc(name, unit, help string, fn func() int64) {
	r.register(name, unit, help, KindGauge, func(e *metricEntry) { e.fn = fn })
}

// Snapshot captures every metric's current value as an isolated copy:
// later registry activity does not alter a snapshot already taken.
// Entries are sorted by name.
func (r *Registry) Snapshot() []Snapshot {
	r.mu.Lock()
	entries := make([]*metricEntry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	out := make([]Snapshot, 0, len(entries))
	for _, e := range entries {
		s := Snapshot{Name: e.name, Unit: e.unit, Help: e.help, Kind: e.kind}
		switch {
		case e.fn != nil:
			s.Value = e.fn()
		case e.counter != nil:
			s.Value = e.counter.Load()
		case e.gauge != nil:
			s.Value = e.gauge.Load()
		case e.hist != nil:
			s.Count = e.hist.count.Load()
			s.Sum = e.hist.sum.Load()
			s.Buckets = make([]int64, HistBuckets)
			for i := range e.hist.buckets {
				s.Buckets[i] = e.hist.buckets[i].Load()
			}
		}
		out = append(out, s)
	}
	return out
}
