// Package daemon assembles the standalone JBS processes from the
// in-process building blocks: a supplier daemon (core.MOFSupplier +
// registry registration, heartbeats, graceful drain) and a merger job
// runner (core.NetMerger addressed through the registry's ownership
// map). The cmd/jbssupplierd and cmd/jbsmergerd mains are thin flag
// wrappers around this package, so the whole multi-process lifecycle —
// register, serve, drain, hand off, exit — is testable in-process and
// reusable by the chaos harness and the multi-process bench.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/registry"
	"repro/internal/transport"
)

// DirLookup resolves map tasks against a directory of MOFs laid out as
// <dir>/<task>.data + <dir>/<task>.index — the layout every fixture
// writer and the deployment walkthrough use. Task names are confined to
// the directory: a name with a path separator or traversal element is
// rejected before it touches the filesystem.
func DirLookup(dir string) core.LookupFunc {
	return func(task string) (string, string, error) {
		if task == "" || task == "." || task == ".." ||
			strings.ContainsAny(task, `/\`) || strings.Contains(task, "..") {
			return "", "", fmt.Errorf("daemon: invalid task name %q", task)
		}
		data := filepath.Join(dir, task+".data")
		index := filepath.Join(dir, task+".index")
		if _, err := os.Stat(index); err != nil {
			return "", "", fmt.Errorf("daemon: no MOF for %s in %s: %w", task, dir, err)
		}
		return data, index, nil
	}
}

// SupplierConfig configures a supplier daemon.
type SupplierConfig struct {
	// ID is the supplier's stable registry identity. Empty derives
	// "sup-<addr>" after the listener binds.
	ID string
	// Addr is the fetch listen address (":0" for ephemeral).
	Addr string
	// RegistryAddr is the registry server to register with.
	RegistryAddr string
	// MOFDir is the directory of MOFs this supplier serves.
	MOFDir string
	// Flow passes through to core.SupplierConfig; nil is flow control
	// off.
	Flow *flow.Config
	// HeartbeatInterval paces lease renewal. Zero means 500ms; negative
	// is rejected. It must stay comfortably under the registry's lease
	// TTL.
	HeartbeatInterval time.Duration
	// DebugAddr, when set, is advertised to the registry as this
	// supplier's /debug/jbs address; control-plane consumers (the
	// autoscaler's collector) poll flow signals from it. The daemon
	// does not serve the endpoint itself — cmd/jbssupplierd starts the
	// debug listener and passes its bound address through here.
	DebugAddr string
	// Log, when set, receives one line per lifecycle event.
	Log func(format string, args ...any)
}

// Supplier is a running supplier daemon: a serving MOFSupplier plus its
// registry presence.
type Supplier struct {
	cfg SupplierConfig
	sup *core.MOFSupplier
	reg *registry.Client
	id  string

	hbStop    chan struct{}
	hbDone    chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// DrainTimeout bounds one graceful supplier drain: the wait for
// in-flight fetches when a supplier daemon is stopped, and each
// retirement an autoscaler sends one.
const DrainTimeout = 30 * time.Second

// StartSupplier binds the fetch listener, registers with the registry,
// and starts heartbeating. The returned Supplier is serving when
// StartSupplier returns.
func StartSupplier(cfg SupplierConfig) (*Supplier, error) {
	if cfg.RegistryAddr == "" {
		return nil, errors.New("daemon: supplier needs a registry address")
	}
	if cfg.MOFDir == "" {
		return nil, errors.New("daemon: supplier needs a MOF directory")
	}
	if cfg.HeartbeatInterval < 0 {
		return nil, fmt.Errorf("daemon: HeartbeatInterval %v must not be negative", cfg.HeartbeatInterval)
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = 500 * time.Millisecond
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	sup, err := core.NewMOFSupplier(core.SupplierConfig{
		Transport: transport.NewTCP(),
		Addr:      cfg.Addr,
		Flow:      cfg.Flow,
	}, DirLookup(cfg.MOFDir))
	if err != nil {
		return nil, err
	}
	id := cfg.ID
	if id == "" {
		id = "sup-" + sup.Addr()
	}
	d := &Supplier{
		cfg:    cfg,
		sup:    sup,
		reg:    registry.NewClient(cfg.RegistryAddr),
		id:     id,
		hbStop: make(chan struct{}),
		hbDone: make(chan struct{}),
	}
	if err := d.reg.RegisterSupplier(d.registration()); err != nil {
		sup.Close()
		d.reg.Close()
		return nil, fmt.Errorf("daemon: register %s: %w", id, err)
	}
	d.logf("daemon: supplier %s serving %s at %s (registry %s)", id, cfg.MOFDir, sup.Addr(), cfg.RegistryAddr)
	go d.heartbeatLoop()
	return d, nil
}

func (d *Supplier) logf(format string, args ...any) {
	if d.cfg.Log != nil {
		d.cfg.Log(format, args...)
	}
}

// registration is the daemon's SupplierInfo as (re)sent to the
// registry on startup and after a lease loss.
func (d *Supplier) registration() registry.SupplierInfo {
	return registry.SupplierInfo{
		ID:        d.id,
		Addr:      d.sup.Addr(),
		DebugAddr: d.cfg.DebugAddr,
	}
}

// ID returns the daemon's registry identity.
func (d *Supplier) ID() string { return d.id }

// Addr returns the bound fetch address.
func (d *Supplier) Addr() string { return d.sup.Addr() }

// Stats exposes the underlying supplier's counters.
func (d *Supplier) Stats() core.SupplierStats { return d.sup.Stats() }

// maxHeartbeatBackoffFactor caps the failure backoff at this multiple
// of the heartbeat interval. The cap must stay small enough that a
// recovered registry sees the daemon within a few lease TTLs.
const maxHeartbeatBackoffFactor = 8

// heartbeatBackoff returns the wait before the next heartbeat attempt
// after streak consecutive failures: exponential from the heartbeat
// interval, capped at maxHeartbeatBackoffFactor times it, with equal
// jitter (half fixed, half random via rnd in [0,1)) so a recovering
// registry is not greeted by every daemon on the same tick. Pure in
// (streak, interval, rnd) — the jitter source is injected for tests.
func heartbeatBackoff(streak int, interval time.Duration, rnd float64) time.Duration {
	limit := maxHeartbeatBackoffFactor * interval
	base := interval
	for i := 1; i < streak && base < limit; i++ {
		base *= 2
	}
	if base > limit {
		base = limit
	}
	return base/2 + time.Duration(rnd*float64(base/2))
}

// heartbeatLoop renews the lease; an unknown-lease answer (expired, or
// the registry restarted) re-registers under the same identity — unless
// the daemon is draining, in which case resurrecting the registration
// would claw shards back mid-handoff. An unreachable registry backs the
// attempts off exponentially (jittered, capped) instead of logging a
// failure at every tick for as long as the outage lasts.
func (d *Supplier) heartbeatLoop() {
	defer close(d.hbDone)
	ticker := time.NewTicker(d.cfg.HeartbeatInterval)
	defer ticker.Stop()
	var (
		failStreak int
		retryAt    time.Time
	)
	for {
		select {
		case <-d.hbStop:
			return
		case now := <-ticker.C:
			if failStreak > 0 && now.Before(retryAt) {
				continue // backing off; skip this tick without dialing
			}
		}
		err := d.reg.Heartbeat(d.id)
		if err == nil {
			if failStreak > 0 {
				d.logf("daemon: %s registry reachable again (after %d failed heartbeats)", d.id, failStreak)
				failStreak = 0
			}
			continue
		}
		if errors.Is(err, registry.ErrUnknownLease) && !d.sup.Draining() {
			if rerr := d.reg.RegisterSupplier(d.registration()); rerr == nil {
				dmnReregisters.Inc()
				d.logf("daemon: %s lease was lost; re-registered", d.id)
				failStreak = 0
				continue
			} else {
				// The registry answered the heartbeat but the re-register
				// failed (restarting, or unreachable again): fall through
				// to the failure accounting below.
				err = rerr
			}
		}
		failStreak++
		dmnHeartbeatFailures.Inc()
		backoff := heartbeatBackoff(failStreak, d.cfg.HeartbeatInterval, rand.Float64())
		retryAt = time.Now().Add(backoff)
		d.logf("daemon: %s heartbeat failed (streak %d, retry in %v): %v",
			d.id, failStreak, backoff.Round(time.Millisecond), err)
	}
}

// Drain executes the graceful-shutdown handshake: hand shard ownership
// to peers (registry drain), then shed new fetches while the local
// pipeline empties (supplier drain). The lease stays alive throughout
// so the registry keeps routing around — not at — this supplier. Call
// Close afterwards to deregister and release resources.
func (d *Supplier) Drain(ctx context.Context) error {
	d.logf("daemon: %s draining (inflight %d)", d.id, d.sup.Inflight())
	if err := d.reg.Drain(d.id); err != nil {
		// The registry may be unreachable; local drain still bounds the
		// damage (new fetches shed and retry elsewhere via lease expiry).
		d.logf("daemon: %s registry drain failed: %v", d.id, err)
	}
	if err := d.sup.Drain(ctx); err != nil {
		return err
	}
	d.logf("daemon: %s drained", d.id)
	return nil
}

// Close deregisters, stops heartbeats, and shuts the supplier down. For
// a graceful exit call Drain first; Close alone is the crash-adjacent
// fast path (in-flight fetches fail over via the merger's retry path).
func (d *Supplier) Close() error {
	d.closeOnce.Do(func() {
		close(d.hbStop)
		<-d.hbDone
		if err := d.reg.Deregister(d.id); err != nil {
			d.logf("daemon: %s deregister failed: %v", d.id, err)
		}
		if err := d.reg.Close(); err != nil && d.closeErr == nil {
			d.closeErr = err
		}
		if err := d.sup.Close(); err != nil && d.closeErr == nil {
			d.closeErr = err
		}
	})
	return d.closeErr
}
