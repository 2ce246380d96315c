// Package autoscale closes the elastic loop over the multi-process JBS
// deployment: it watches the flow signals the suppliers already export
// (admission-ledger pressure, shed rate, DRR queue depth) plus the
// registry's membership view, and grows or drains the jbssupplierd
// fleet so a skewed tenant gets capacity instead of only sheds.
//
// The subsystem is three pluggable pieces wired by the Autoscaler
// control loop:
//
//   - a Collector that samples the fleet (registry ownership map for
//     membership, each supplier's /debug/jbs/flow endpoint for signals);
//   - a Policy (target tracking on shed rate) whose decisions are pure
//     functions of (now, signals) — hysteresis and cooldowns live in
//     the policy, the clock is injected, and the unit tests replay
//     scripted signal sequences;
//   - a Launcher that starts new supplier processes and retires surplus
//     ones through the existing SIGTERM -> drain -> handoff path, so
//     scale-down never loses a fetch.
//
// Scale events ride the registry's epoch/rebalance machinery: a launch
// registers and is assigned shards, a retire drains and hands its
// shards to peers — the autoscaler never touches ownership directly.
package autoscale

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/daemon"
)

// Config assembles an Autoscaler.
type Config struct {
	// Collector samples the fleet each tick.
	Collector Collector
	// Policy sizes the fleet every tick.
	Policy Policy
	// Launcher starts and retires supplier instances.
	Launcher Launcher
	// Max bounds the fleet size the autoscaler will steer toward; the
	// floor is minFleet. Zero means minFleet.
	Max int
	// Interval paces the Run loop. Zero means 500ms. Tests bypass Run
	// and call Tick directly with their own clock.
	Interval time.Duration
	// LaunchGrace is how long a launched instance may stay invisible to
	// the registry before it stops counting toward the fleet (covers
	// the exec-to-register window without double-launching). Zero
	// means 5s.
	LaunchGrace time.Duration
	// Clock supplies the Run loop's notion of now. Nil means time.Now.
	Clock func() time.Time
	// Log, when set, receives one line per scale event and failure.
	Log func(format string, args ...any)
}

const (
	// minFleet is the fleet size the autoscaler launches up to at once
	// and never retires below.
	minFleet = 1
	// idPrefix names launched instances "auto-<n>".
	idPrefix = "auto"
)

func (c *Config) applyDefaults() error {
	if c.Collector == nil {
		return errors.New("autoscale: Config.Collector must not be nil")
	}
	if c.Launcher == nil {
		return errors.New("autoscale: Config.Launcher must not be nil")
	}
	if c.Policy == nil {
		return errors.New("autoscale: Config.Policy must not be nil")
	}
	if c.Max < 0 {
		return fmt.Errorf("autoscale: Max %d must not be negative", c.Max)
	}
	if c.Max == 0 {
		c.Max = minFleet
	}
	if c.Interval <= 0 {
		c.Interval = 500 * time.Millisecond
	}
	if c.LaunchGrace <= 0 {
		c.LaunchGrace = 5 * time.Second
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return nil
}

// managedInstance is one launched supplier plus its bookkeeping.
type managedInstance struct {
	inst       Instance
	launchedAt time.Time
}

// Autoscaler runs the collect -> decide -> act loop. All mutation goes
// through Tick, which Run paces on Config.Interval; tests drive Tick
// directly with a scripted clock for deterministic decisions.
//
// Two locks split the loop from its observers: tickMu serializes whole
// collect -> decide -> act cycles (and RetireAll), while mu guards only
// the bookkeeping and is never held across blocking work — collects,
// launches, and drains run outside it, so AutoscaleState and Managed
// answer immediately even while a 30s drain is in flight.
type Autoscaler struct {
	cfg Config

	tickMu sync.Mutex // serializes Tick cycles and RetireAll

	mu      sync.Mutex         // bookkeeping only; never held across I/O
	managed []*managedInstance // launch order; retires pop the newest
	seq     int                // next instance ordinal
	prev    Sample
	prevAt  time.Time
	hasPrev bool
	lastSig Signals
	lastRsn string
	desired int
	events  []Event

	runStop  chan struct{}
	runDone  chan struct{}
	runOnce  sync.Once
	stopOnce sync.Once

	unregister func()
}

// maxEvents bounds the debug event ring.
const maxEvents = 64

// New validates the config and returns an Autoscaler. Call Run to start
// the loop (or Tick directly), and Close to stop it and release the
// debug registration. Close does not retire the fleet; for a graceful
// exit call Close first and RetireAll after — stopping the loop first
// means no tick can observe the shrinking fleet mid-drain and relaunch
// a supplier nobody would ever retire.
func New(cfg Config) (*Autoscaler, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	a := &Autoscaler{
		cfg:     cfg,
		runStop: make(chan struct{}),
		runDone: make(chan struct{}),
	}
	a.unregister = Register(a)
	return a, nil
}

func (a *Autoscaler) logf(format string, args ...any) {
	if a.cfg.Log != nil {
		a.cfg.Log(format, args...)
	}
}

// Run paces Tick on the configured interval until Close. It is the
// production loop; tests call Tick directly instead.
func (a *Autoscaler) Run() {
	a.runOnce.Do(func() {
		go a.runLoop()
	})
}

func (a *Autoscaler) runLoop() {
	defer close(a.runDone)
	ticker := time.NewTicker(a.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-a.runStop:
			return
		case <-ticker.C:
		}
		if err := a.Tick(a.cfg.Clock()); err != nil {
			a.logf("autoscale: tick failed: %v", err)
		}
	}
}

// Close stops the Run loop (if started) and removes the debug
// registration. The managed fleet is left running; call RetireAll
// after Close for a graceful exit (Close first, so a queued tick
// cannot relaunch suppliers the retirement just drained).
func (a *Autoscaler) Close() error {
	a.stopOnce.Do(func() {
		close(a.runStop)
		a.runOnce.Do(func() { close(a.runDone) }) // Run never started
		<-a.runDone
		a.unregister()
	})
	return nil
}

// Tick executes one collect -> decide -> act cycle at the given time.
// It is safe to call concurrently with itself (serialized internally)
// but is normally called from one loop. Collection errors are counted
// and returned; the fleet is left untouched on a failed collect.
func (a *Autoscaler) Tick(now time.Time) error {
	a.tickMu.Lock()
	defer a.tickMu.Unlock()
	asEvaluations.Inc()
	// Collect before taking mu: the production collector polls every
	// supplier's debug endpoint sequentially (2s timeout each when one
	// is unreachable) and must not stall snapshot readers meanwhile.
	sample, err := a.cfg.Collector.Collect()
	if err != nil {
		asCollectFailures.Inc()
		return fmt.Errorf("autoscale: collect: %w", err)
	}

	a.mu.Lock()
	sig := a.signalsLocked(sample, now)
	a.lastSig = sig

	// Decide: the policy's size, clamped to [minFleet, Max].
	d := a.cfg.Policy.Evaluate(now, sig)
	desired, reason := d.Desired, a.cfg.Policy.Name()+": "+d.Reason
	if desired < minFleet {
		desired, reason = minFleet, fmt.Sprintf("floor: fleet minimum %d", minFleet)
	}
	if desired > a.cfg.Max {
		desired, reason = a.cfg.Max, fmt.Sprintf("ceiling: fleet maximum %d (%s)", a.cfg.Max, reason)
	}
	a.desired = desired
	a.lastRsn = reason
	asFleet.Set(int64(sig.Live))
	asDesired.Set(int64(desired))
	asShedRate.Set(int64(sig.ShedRate * 1000))
	asQueueBytes.Set(sig.QueuedBytes)

	// Plan the act phase while holding mu — reserve launch IDs, pop
	// instances to retire — but perform it after releasing: launches
	// spawn processes and retires block on drains (up to
	// daemon.DrainTimeout).
	// sig.Live already counts pending launches (grace window), so a
	// slow-to-register instance is not launched twice.
	var launchIDs []string
	var toRetire []*managedInstance
	switch {
	case desired > sig.Live:
		for i := sig.Live; i < desired; i++ {
			a.seq++
			launchIDs = append(launchIDs, fmt.Sprintf("%s-%d", idPrefix, a.seq))
		}
	case desired < sig.Live:
		for i := desired; i < sig.Live && len(a.managed) > 0; i++ {
			m := a.managed[len(a.managed)-1]
			a.managed = a.managed[:len(a.managed)-1]
			toRetire = append(toRetire, m)
		}
		if len(toRetire) == 0 {
			a.lastRsn = reason + " (held: no managed instance to retire)"
		}
	}
	a.prev, a.prevAt, a.hasPrev = sample, now, true
	a.mu.Unlock()

	if len(launchIDs) > 0 {
		a.scaleUp(now, sig.Live, launchIDs, reason, sample.Epoch)
	}
	if len(toRetire) > 0 {
		a.scaleDown(now, sig.Live, toRetire, reason, sample.Epoch)
	}
	return nil
}

// signalsLocked digests a sample (plus the previous one) into the
// policy inputs. Shed rate is the per-second sum of capacity-shed
// deltas for suppliers present in both samples; a supplier first seen
// now contributes its full count (its counter started at zero within
// the window). Must be called with mu held.
func (a *Autoscaler) signalsLocked(s Sample, now time.Time) Signals {
	sig := Signals{Live: s.Live(), QueuedBytes: 0}
	var shedDelta int64
	prevSheds := make(map[string]int64, len(a.prev.Suppliers))
	if a.hasPrev {
		for _, p := range a.prev.Suppliers {
			prevSheds[p.ID] = p.Sheds
		}
	}
	for _, sup := range s.Suppliers {
		sig.QueuedBytes += sup.QueuedBytes
		if sup.BudgetBytes > 0 {
			if pr := float64(sup.AdmittedBytes) / float64(sup.BudgetBytes); pr > sig.Pressure {
				sig.Pressure = pr
			}
		}
		if d := sup.Sheds - prevSheds[sup.ID]; d > 0 && a.hasPrev {
			shedDelta += d
		}
	}
	if a.hasPrev {
		if dt := now.Sub(a.prevAt).Seconds(); dt > 0 {
			sig.ShedRate = float64(shedDelta) / dt
		}
	}
	// Pending launches: managed instances the registry does not list
	// yet, still inside their grace window. They occupy fleet slots so
	// one decision is not acted on twice.
	inSample := make(map[string]bool, len(s.Suppliers))
	for _, sup := range s.Suppliers {
		inSample[sup.ID] = true
	}
	for _, m := range a.managed {
		if !inSample[m.inst.ID()] && now.Sub(m.launchedAt) < a.cfg.LaunchGrace {
			sig.Live++
			sig.Pending++
		}
	}
	return sig
}

// scaleUp launches the reserved instance IDs. Called from Tick without
// mu held (Launch spawns processes); tickMu serializes it against other
// cycles.
func (a *Autoscaler) scaleUp(now time.Time, live int, ids []string, reason string, epoch uint64) {
	var launched []*managedInstance
	for _, id := range ids {
		inst, err := a.cfg.Launcher.Launch(id)
		if err != nil {
			asLaunchFailures.Inc()
			a.logf("autoscale: launch %s failed: %v", id, err)
			break
		}
		launched = append(launched, &managedInstance{inst: inst, launchedAt: now})
		a.logf("autoscale: scale up %d -> %d: launched %s (%s)", live, live+len(launched), id, reason)
	}
	if len(launched) == 0 {
		return
	}
	a.mu.Lock()
	a.managed = append(a.managed, launched...)
	a.recordEventLocked(Event{When: now, Action: "up", From: live, To: live + len(launched), Reason: reason, Epoch: epoch})
	a.mu.Unlock()
	asScaleUps.Inc()
}

// scaleDown retires the popped instances (newest first) through the
// graceful drain path. Unmanaged suppliers (ones this autoscaler did
// not launch) are never handed to it. Called from Tick without mu held
// — a drain may block up to daemon.DrainTimeout and snapshot readers
// must not wait on it; tickMu serializes it against other cycles.
func (a *Autoscaler) scaleDown(now time.Time, live int, toRetire []*managedInstance, reason string, epoch uint64) {
	retired := 0
	for _, m := range toRetire {
		ctx, cancel := context.WithTimeout(context.Background(), daemon.DrainTimeout)
		err := m.inst.Retire(ctx)
		cancel()
		if err != nil {
			a.retireFailed(m, err)
			continue
		}
		retired++
		a.logf("autoscale: scale down %d -> %d: retired %s (drained; %s)", live, live-retired, m.inst.ID(), reason)
	}
	if retired > 0 {
		a.mu.Lock()
		a.recordEventLocked(Event{When: now, Action: "down", From: live, To: live - retired, Reason: reason, Epoch: epoch})
		a.mu.Unlock()
		asScaleDowns.Inc()
	}
}

// retireFailed handles a graceful retirement that did not complete:
// the instance is already outside a.managed, so leaving it running
// would orphan a supplier the autoscaler can never scale down again.
// Kill is the last resort — the crash-adjacent path the merger's retry
// machinery absorbs — and is idempotent on an already-dead process.
func (a *Autoscaler) retireFailed(m *managedInstance, err error) {
	asRetireFailures.Inc()
	if kerr := m.inst.Kill(); kerr != nil {
		a.logf("autoscale: retire %s failed: %v (kill fallback also failed: %v)", m.inst.ID(), err, kerr)
		return
	}
	a.logf("autoscale: retire %s failed: %v (killed as last resort)", m.inst.ID(), err)
}

func (a *Autoscaler) recordEventLocked(e Event) {
	a.events = append(a.events, e)
	if len(a.events) > maxEvents {
		a.events = a.events[len(a.events)-maxEvents:]
	}
}

// Managed returns the IDs of the instances this autoscaler launched and
// has not retired, oldest first.
func (a *Autoscaler) Managed() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	ids := make([]string, 0, len(a.managed))
	for _, m := range a.managed {
		ids = append(ids, m.inst.ID())
	}
	return ids
}

// RetireAll gracefully retires every managed instance, newest first —
// the SIGTERM exit path for cmd/jbsautoscalerd, called after Close has
// stopped the control loop. The first error is returned; retirement
// continues past failures, and an instance whose graceful drain fails
// is killed rather than left running as an orphan.
func (a *Autoscaler) RetireAll(ctx context.Context) error {
	a.tickMu.Lock()
	defer a.tickMu.Unlock()
	a.mu.Lock()
	toRetire := a.managed
	a.managed = nil
	a.mu.Unlock()
	var firstErr error
	for i := len(toRetire) - 1; i >= 0; i-- {
		m := toRetire[i]
		if err := m.inst.Retire(ctx); err != nil {
			a.retireFailed(m, err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		a.logf("autoscale: retired %s (shutdown)", m.inst.ID())
	}
	return firstErr
}

// AutoscaleState snapshots the autoscaler for /debug/jbs/autoscale.
func (a *Autoscaler) AutoscaleState() State {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := State{
		Name:        "autoscaler",
		Min:         minFleet,
		Max:         a.cfg.Max,
		Live:        a.lastSig.Live,
		Pending:     a.lastSig.Pending,
		Desired:     a.desired,
		ShedRate:    a.lastSig.ShedRate,
		QueuedBytes: a.lastSig.QueuedBytes,
		Pressure:    a.lastSig.Pressure,
		LastReason:  a.lastRsn,
		Events:      append([]Event(nil), a.events...),
	}
	for _, m := range a.managed {
		st.Managed = append(st.Managed, m.inst.ID())
	}
	return st
}
