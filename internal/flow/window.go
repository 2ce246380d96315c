package flow

import "repro/internal/metrics"

// Window is one node-pair's AIMD congestion window, replacing the
// NetMerger's fixed WindowPerNode. The window grows additively on
// clean round trips and explicit credit grants, and shrinks
// multiplicatively on shed and timeout signals, clamped to
// [min, max].
//
// Window is NOT safe for concurrent use: the NetMerger mutates its
// per-node groups (and their windows) under one mutex, and the window
// inherits that discipline so the hot path stays free of extra
// atomics and allocations. The optional size gauge is the only piece
// observable without the owner's lock.
type Window struct {
	// size is the current in-flight limit, mirrored into the registry's
	// window gauge when NewWindow was given one.
	size metrics.Mirror
	acc  int // additive-increase accumulator, in Increase units
	min  int
	max  int
	inc  int
	dec  float64
}

// NewWindow creates a window from a defaulted Config. gauge, when
// non-nil, mirrors the window size into the metrics registry.
func NewWindow(cfg Config, gauge *metrics.Gauge) *Window {
	w := &Window{
		size: metrics.NewMirror(gauge),
		min:  cfg.WindowMin,
		max:  cfg.WindowMax,
		inc:  cfg.Increase,
		dec:  cfg.Decrease,
	}
	w.setSize(cfg.WindowStart)
	return w
}

// Limit returns the current in-flight limit.
func (w *Window) Limit() int { return int(w.size.Load()) }

// setSize clamps and applies a new size, mirroring it to the gauge.
func (w *Window) setSize(n int) {
	if n < w.min {
		n = w.min
	}
	if n > w.max {
		n = w.max
	}
	w.size.Set(int64(n))
}

// OnClean records one clean delivery (a full segment reassembled with
// no shed or failure). Growth is additive per round trip: each
// delivery banks Increase units, and a full window's worth of units
// buys one more slot — the classic cwnd += 1/cwnd shape in integers.
func (w *Window) OnClean() {
	if w.Limit() >= w.max {
		w.acc = 0
		return
	}
	w.acc += w.inc
	for w.acc >= w.Limit() && w.Limit() < w.max {
		w.acc -= w.Limit()
		w.setSize(w.Limit() + 1)
	}
}

// OnCredit applies one explicit credit granted by the peer (a CREDIT
// frame after its admission ledger recovered): one immediate slot,
// bypassing the per-RTT accumulator.
func (w *Window) OnCredit() {
	w.setSize(w.Limit() + 1)
}

// OnShed records a shed response: multiplicative decrease, floor
// clamped, accumulated growth forfeited.
func (w *Window) OnShed() {
	w.acc = 0
	w.setSize(int(float64(w.Limit()) * w.dec))
}

// OnTimeout records a dead connection or request timeout — the same
// multiplicative collapse as a shed. Kept separate so callers read as
// the signal they saw.
func (w *Window) OnTimeout() {
	w.OnShed()
}

// State snapshots the window for the /debug/jbs/flow endpoint.
// Like every other method it requires the owner's lock.
func (w *Window) State() WindowState {
	return WindowState{Size: w.Limit(), Min: w.min, Max: w.max}
}
