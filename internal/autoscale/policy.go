package autoscale

import (
	"fmt"
	"time"
)

// Signals is the per-tick digest of fleet state the policies consume.
type Signals struct {
	// Live is the fleet size the decision steers: non-draining
	// registered suppliers plus pending launches still inside their
	// grace window.
	Live int
	// Pending is how many of Live are launched-but-not-yet-registered.
	Pending int
	// ShedRate is the fleet-wide capacity-shed rate (sheds/sec) over
	// the last collection interval.
	ShedRate float64
	// QueuedBytes is the fleet-wide admission queue depth: bytes
	// sitting in supplier DRR tenant queues right now.
	QueuedBytes int64
	// Pressure is the worst ledger occupancy across the fleet
	// (admitted bytes / budget), zero when flow control is off.
	Pressure float64
}

// Decision is one policy's verdict for the tick.
type Decision struct {
	// Desired is the fleet size this policy wants; returning the
	// current size is a hold.
	Desired int
	// Reason is a one-line human explanation for logs and debug state.
	Reason string
}

// Policy turns (now, signals) into a desired fleet size. Policies own
// their hysteresis and cooldown state; they must be deterministic given
// the sequence of Evaluate calls (the clock is always passed in, never
// read), so tests can replay scripted signal timelines.
type Policy interface {
	Name() string
	Evaluate(now time.Time, sig Signals) Decision
}

// cooldown gates scale decisions by direction. Zero values disable the
// corresponding gate.
type cooldown struct {
	up, down         time.Duration
	lastUp, lastDown time.Time
}

func (c *cooldown) upReady(now time.Time) bool {
	return c.lastUp.IsZero() || now.Sub(c.lastUp) >= c.up
}

func (c *cooldown) downReady(now time.Time) bool {
	return c.lastDown.IsZero() || now.Sub(c.lastDown) >= c.down
}

// TargetTrackingConfig tunes a TargetTracking policy.
type TargetTrackingConfig struct {
	// TargetShedRate is the per-supplier shed rate (sheds/sec) the
	// fleet should be sized to stay at. Must be positive.
	TargetShedRate float64
	// DownFraction scales the shrink threshold: the fleet is eligible
	// to lose a supplier once its per-supplier shed rate stays under
	// TargetShedRate*DownFraction for QuietFor. Zero means 0.1.
	DownFraction float64
	// QuietFor is how long the shed rate must stay under the shrink
	// threshold before a scale-down (hysteresis). Zero means 2s.
	QuietFor time.Duration
	// UpCooldown and DownCooldown are the minimum gaps between
	// consecutive scale-ups and scale-downs. Zero means 1s and 2s.
	UpCooldown, DownCooldown time.Duration
}

func (c *TargetTrackingConfig) applyDefaults() error {
	if c.TargetShedRate <= 0 {
		return fmt.Errorf("autoscale: TargetShedRate %v must be positive", c.TargetShedRate)
	}
	if c.DownFraction < 0 || c.DownFraction >= 1 {
		return fmt.Errorf("autoscale: DownFraction %v must be in [0, 1)", c.DownFraction)
	}
	if c.DownFraction == 0 {
		c.DownFraction = 0.1
	}
	if c.QuietFor <= 0 {
		c.QuietFor = 2 * time.Second
	}
	if c.UpCooldown <= 0 {
		c.UpCooldown = time.Second
	}
	if c.DownCooldown <= 0 {
		c.DownCooldown = 2 * time.Second
	}
	return nil
}

// TargetTracking sizes the fleet so the per-supplier shed rate tracks a
// target: observing rate r across n suppliers, the fleet that would
// bring the per-supplier rate back to target is ceil(r / target) — the
// same shape as cloud target-tracking autoscaling on a utilization
// metric. Scale-down is hysteretic: the rate must stay below a fraction
// of the target for a quiet window, then the fleet shrinks one supplier
// per DownCooldown.
type TargetTracking struct {
	cfg        TargetTrackingConfig
	cd         cooldown
	quietSince time.Time
}

// NewTargetTracking validates cfg and returns the policy.
func NewTargetTracking(cfg TargetTrackingConfig) (*TargetTracking, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	return &TargetTracking{
		cfg: cfg,
		cd:  cooldown{up: cfg.UpCooldown, down: cfg.DownCooldown},
	}, nil
}

// Name implements Policy.
func (p *TargetTracking) Name() string { return "shed-target" }

// Evaluate implements Policy.
func (p *TargetTracking) Evaluate(now time.Time, sig Signals) Decision {
	live := sig.Live
	if live < 1 {
		live = 1
	}
	perSupplier := sig.ShedRate / float64(live)
	switch {
	case perSupplier > p.cfg.TargetShedRate:
		p.quietSince = time.Time{}
		if !p.cd.upReady(now) {
			return Decision{Desired: sig.Live,
				Reason: fmt.Sprintf("hold: shed rate %.1f/s over target, up-cooldown active", sig.ShedRate)}
		}
		want := ceilDiv(sig.ShedRate, p.cfg.TargetShedRate)
		if want <= sig.Live {
			want = sig.Live + 1
		}
		p.cd.lastUp = now
		return Decision{Desired: want,
			Reason: fmt.Sprintf("shed rate %.1f/s = %.1f/supplier, target %.1f", sig.ShedRate, perSupplier, p.cfg.TargetShedRate)}
	case perSupplier <= p.cfg.TargetShedRate*p.cfg.DownFraction:
		if p.quietSince.IsZero() {
			p.quietSince = now
		}
		if now.Sub(p.quietSince) >= p.cfg.QuietFor && p.cd.downReady(now) && sig.Live > 1 {
			p.cd.lastDown = now
			return Decision{Desired: sig.Live - 1,
				Reason: fmt.Sprintf("shed rate %.1f/s quiet for %v", sig.ShedRate, p.cfg.QuietFor)}
		}
		return Decision{Desired: sig.Live, Reason: "hold: shed rate quiet, waiting out hysteresis"}
	default:
		// Between the shrink and grow thresholds: the hysteresis band.
		p.quietSince = time.Time{}
		return Decision{Desired: sig.Live, Reason: "hold: shed rate inside target band"}
	}
}

// ceilDiv returns ceil(a/b) as an int for positive b.
func ceilDiv(a, b float64) int {
	n := int(a / b)
	if float64(n)*b < a {
		n++
	}
	return n
}
