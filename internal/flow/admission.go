package flow

import "sync/atomic"

// Decision is the admission ledger's verdict on one fetch request.
type Decision uint8

// The admission decisions.
const (
	// Accept: under the accept budget, proceed normally.
	Accept Decision = iota
	// Queue: over the accept budget but under the hard limit — the
	// request proceeds, counted as queued pressure.
	Queue
	// Shed: over the hard limit — reject now, retry after the hint.
	Shed
)

// String names a decision for logs and debug pages.
func (d Decision) String() string {
	switch d {
	case Accept:
		return "accept"
	case Queue:
		return "queue"
	case Shed:
		return "shed"
	}
	return "unknown"
}

// Ledger is the supplier's byte-budgeted admission ledger. A request
// is charged its segment length when it is admitted into the prefetch
// pipeline and released when transmission (or a failure path) ends its
// trip, so the balance bounds queued requests, DataCache residency of
// staged segments, and transmit-queue depth together. Admit and
// Release are lock-free atomics — per-request cost on the supplier's
// hot path is a compare-and-swap, with no allocation.
type Ledger struct {
	budget int64 // accept below this
	limit  int64 // shed above this (budget + half a budget of queue allowance)

	used     atomic.Int64
	shedding atomic.Bool // latched on first shed, cleared by recovery

	sheds     atomic.Int64
	shedBytes atomic.Int64
	queued    atomic.Int64
	credits   atomic.Int64
}

// NewLedger creates a ledger from a defaulted Config.
func NewLedger(cfg Config) *Ledger {
	return &Ledger{budget: cfg.AdmitBytes, limit: cfg.AdmitBytes + cfg.AdmitBytes/2}
}

// Admit charges n bytes and returns the decision. A Shed charges
// nothing — the caller rejects the request and must not Release. A
// request larger than the whole limit is admitted alone (like an
// oversized DataCache segment) rather than shed forever.
func (l *Ledger) Admit(n int64) Decision {
	for {
		cur := l.used.Load()
		next := cur + n
		if next > l.limit && cur > 0 {
			l.shedding.Store(true)
			l.sheds.Add(1)
			l.shedBytes.Add(n)
			ledSheds.Inc()
			ledShedBytes.Add(n)
			return Shed
		}
		if l.used.CompareAndSwap(cur, next) {
			ledUsed.Add(n)
			if next > l.budget {
				l.queued.Add(1)
				ledQueued.Inc()
				return Queue
			}
			return Accept
		}
	}
}

// Release returns n admitted bytes. It reports whether this release
// recovered the ledger from a shedding episode — the balance dropped
// back under the accept budget after at least one shed — which is the
// caller's cue to grant credits to its peers.
func (l *Ledger) Release(n int64) (recovered bool) {
	next := l.used.Add(-n)
	ledUsed.Add(-n)
	if next < l.budget && l.shedding.CompareAndSwap(true, false) {
		l.credits.Add(1)
		ledCredits.Inc()
		return true
	}
	return false
}

// Used returns the currently admitted byte balance.
func (l *Ledger) Used() int64 { return l.used.Load() }

// State snapshots the ledger for the /debug/jbs/flow endpoint. The drain
// fields are the owner's to fill: the drain latch is the supplier's.
func (l *Ledger) State() LedgerState {
	return LedgerState{
		Budget:   l.budget,
		Limit:    l.limit,
		Used:     l.used.Load(),
		Queued:   l.queued.Load(),
		Sheds:    l.sheds.Load(),
		Credits:  l.credits.Load(),
		Shedding: l.shedding.Load(),
	}
}
