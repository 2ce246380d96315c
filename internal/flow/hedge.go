package flow

import (
	"fmt"
	"slices"
	"time"
)

// The hedge threshold's constants.
const (
	// hedgeQuantile is the RTT quantile the hedge threshold is derived
	// from: a fetch outliving the node's p95 is presumed to be a
	// straggler worth racing.
	hedgeQuantile = 0.95
	// hedgeMultiplier scales the quantile into the threshold. 2× p95
	// keeps the duplicate rate well under 5% on a stable node while
	// still firing orders of magnitude before the fetch deadline.
	hedgeMultiplier = 2.0
	// hedgeMinDelay floors the threshold so sub-millisecond RTTs on a
	// loopback fixture cannot arm hedges for ordinary jitter.
	hedgeMinDelay = time.Millisecond
	// hedgeMinSamples is how many RTT observations a node needs before
	// its quantile is trusted; below it the Baseline applies.
	hedgeMinSamples = 16
)

// rttRingSize is the fixed capacity of an RTTRing. 64 samples give a
// p95 with enough resolution (rank 61 of 64) while keeping the quantile
// computation a fixed-size copy-and-sort.
const rttRingSize = 64

// RTTRing is a fixed-capacity rolling window of RTT samples feeding the
// hedge threshold. Unlike the log2 metrics histogram it forgets — a
// node that was slow an hour ago should not hedge forever — and its
// quantile is exact over the window rather than a power-of-two bucket
// edge. Like Window it is not safe for concurrent use: the owner (the
// merger) guards it with its own lock.
type RTTRing struct {
	samples [rttRingSize]int64 // nanoseconds, ring-ordered
	scratch [rttRingSize]int64 // Quantile's sort buffer
	n       int                // filled entries, <= rttRingSize
	next    int                // next write position
}

// Add records one RTT sample in nanoseconds, evicting the oldest once
// the ring is full.
func (r *RTTRing) Add(ns int64) {
	r.samples[r.next] = ns
	r.next = (r.next + 1) % rttRingSize
	if r.n < rttRingSize {
		r.n++
	}
}

// Len returns the number of samples currently held.
func (r *RTTRing) Len() int { return r.n }

// Quantile returns the q-quantile (0 < q <= 1) of the held samples in
// nanoseconds, 0 when empty. It sorts into a preallocated scratch
// buffer, so it does not allocate; at 64 entries the sort is cheap
// enough for a per-tick scan.
func (r *RTTRing) Quantile(q float64) int64 {
	if r.n == 0 {
		return 0
	}
	s := r.scratch[:r.n]
	copy(s, r.samples[:r.n])
	slices.Sort(s)
	// Rank ⌈q·n⌉, 1-based, clamped into the window.
	rank := int(q * float64(r.n))
	if float64(rank) < q*float64(r.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > r.n {
		rank = r.n
	}
	return s[rank-1]
}

// HedgeConfig tunes the merger's speculative-fetch controller. A node's
// hedge threshold is 2 × the p95 of its last 64 RTTs, floored at 1ms
// and uncapped (the fetch deadline is the backstop), once the node has
// 16 samples; before that it is Baseline.
type HedgeConfig struct {
	// Baseline is the threshold used while a node has fewer than 16 RTT
	// observations. Zero keeps hedging disarmed until the quantile is
	// trustworthy, so cold-start hedging is opt-in; chaos scenarios and
	// latency-critical jobs set it so a node that stalls on its very
	// first fetches is still rescued.
	Baseline time.Duration
}

// ApplyDefaults validates cfg.
func (c *HedgeConfig) ApplyDefaults() error {
	if c.Baseline < 0 {
		return fmt.Errorf("flow: hedge Baseline %v must not be negative", c.Baseline)
	}
	return nil
}

// Threshold computes the hedge-arm delay for a node from its rolling
// RTT window: 2 × p95, floored at 1ms. With fewer than 16 observations
// it returns Baseline — zero meaning "do not hedge this node yet".
// Callers hold the lock guarding ring.
func (c *HedgeConfig) Threshold(ring *RTTRing) time.Duration {
	if ring == nil || ring.Len() < hedgeMinSamples {
		return c.Baseline
	}
	return max(time.Duration(hedgeMultiplier*float64(ring.Quantile(hedgeQuantile))), hedgeMinDelay)
}
