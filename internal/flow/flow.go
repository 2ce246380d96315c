// Package flow is the shuffle service's control plane: admission
// control, credit-based flow control, and multi-tenant fair scheduling
// layered over the data plane in internal/core. The paper's MOFSupplier
// and NetMerger run on fixed policies — strict round-robin over MOF
// groups, a constant per-node in-flight window — which keep a single
// job fair but collapse under multi-job traffic: one hot reducer or an
// overloaded supplier node can exhaust DataCache memory and
// transmit-queue depth for everyone. This package turns those fixed
// knobs into adaptive, observable policy:
//
//   - Ledger — a byte-budgeted admission ledger the supplier consults
//     before committing a fetch request to the prefetch pipeline. It
//     covers the request's whole resident life (queue, DataCache,
//     transmit), so it bounds DataCache residency and transmit-queue
//     depth together. Over budget it queues; over the hard limit it
//     sheds, and shed responses carry a retry-after hint.
//   - Window — a per-node-pair AIMD congestion window replacing the
//     merger's fixed per-node window: additive growth on clean
//     deliveries and explicit credits, multiplicative collapse on
//     shed and timeout signals, clamped to [1, WindowMax].
//   - DRR — a weighted deficit round-robin scheduler generalizing the
//     supplier's round-robin over MOF groups to per-tenant fairness,
//     so a multi-job run cannot be starved by one heavy tenant.
//
// Everything here is allocation-free on the data path (atomics and
// plain fields mutated under the caller's existing locks); shedding,
// credit grants, and tenant registration are the cold paths. Flow
// state is observable through the metrics registry and the
// /debug/jbs/flow endpoint (internal/debug), fed by the Source
// registry in this package.
package flow

import (
	"fmt"
	"time"
)

// TenantFunc maps a map-task id to the tenant (job) it belongs to, for
// weighted fair queueing on the supplier. A nil TenantFunc places all
// traffic in one tenant. Implementations must not allocate: they run
// once per fetch request (string slicing is fine, formatting is not).
type TenantFunc func(task string) string

// Defaults for the zero-valued Config fields.
const (
	// DefaultAdmitBytes is the admission ledger's accept budget: the
	// resident bytes (queued + staged + transmitting) a supplier takes
	// on before new requests count as queued pressure. Half a default
	// DataCache keeps eviction ahead of admission.
	DefaultAdmitBytes = 32 << 20
	// DefaultRetryAfter is the base retry-after hint carried on shed
	// responses; the merger adds jitter before re-sending.
	DefaultRetryAfter = 2 * time.Millisecond
	// DefaultWindowStart is the initial AIMD window, matching the
	// paper's fixed per-node window of 4.
	DefaultWindowStart = 4
	// DefaultWindowMax is the AIMD window ceiling.
	DefaultWindowMax = 64
)

// The flow constants no deployment tunes.
const (
	// windowMin is the AIMD window floor: one request stays in flight
	// so progress (and fresh congestion signals) never stop.
	windowMin = 1
	// windowIncrease is the additive-increase unit banked per clean
	// delivery; the window grows by about one slot per RTT round.
	windowIncrease = 1
	// windowDecrease is the multiplicative-decrease factor applied on a
	// shed or timeout.
	windowDecrease = 0.5
	// quantum is the deficit round-robin byte quantum granted per
	// tenant turn — two default transport buffers, so one turn covers a
	// couple of chunked segments.
	quantum = 256 << 10
)

// Config tunes the flow subsystem. The zero value of every field means
// "use the default"; negative values are rejected by name, matching
// the config conventions of internal/core.
type Config struct {
	// AdmitBytes is the admission ledger's accept budget in resident
	// bytes; requests admitted beyond it are counted as queued. The
	// supplier sheds at one and a half times AdmitBytes.
	AdmitBytes int64
	// RetryAfter is the base retry-after hint on shed responses.
	RetryAfter time.Duration
	// WindowStart is the initial per-node AIMD window.
	WindowStart int
	// WindowMax is the window ceiling.
	WindowMax int
	// Weights maps tenant names to relative scheduling weights; absent
	// tenants weigh 1. Zero or negative weights are rejected by name.
	Weights map[string]int64
}

// ApplyDefaults validates cfg and fills zero fields with defaults,
// following the core config rule: zero means default, negative (or
// otherwise unusable) is rejected by name.
func (c *Config) ApplyDefaults() error {
	if c.AdmitBytes < 0 {
		return fmt.Errorf("flow: AdmitBytes %d must not be negative", c.AdmitBytes)
	}
	if c.RetryAfter < 0 {
		return fmt.Errorf("flow: RetryAfter %v must not be negative", c.RetryAfter)
	}
	if c.WindowStart < 0 {
		return fmt.Errorf("flow: WindowStart %d must not be negative", c.WindowStart)
	}
	if c.WindowMax < 0 {
		return fmt.Errorf("flow: WindowMax %d must not be negative", c.WindowMax)
	}
	for tenant, w := range c.Weights {
		if w <= 0 {
			return fmt.Errorf("flow: weight %d for tenant %q must be positive", w, tenant)
		}
	}
	if c.AdmitBytes == 0 {
		c.AdmitBytes = DefaultAdmitBytes
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = DefaultRetryAfter
	}
	if c.WindowStart == 0 {
		c.WindowStart = DefaultWindowStart
	}
	if c.WindowMax == 0 {
		c.WindowMax = DefaultWindowMax
	}
	// A start past the ceiling would be clamped silently; reject it by
	// name instead.
	if c.WindowStart > c.WindowMax {
		return fmt.Errorf("flow: WindowStart %d exceeds WindowMax %d", c.WindowStart, c.WindowMax)
	}
	return nil
}
