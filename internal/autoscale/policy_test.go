package autoscale

import (
	"testing"
	"time"
)

// base is an arbitrary fixed epoch for scripted clocks; policies only
// ever difference times, so the origin is irrelevant.
var base = time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

func at(d time.Duration) time.Time { return base.Add(d) }

func newShedPolicy(t *testing.T, cfg TargetTrackingConfig) *TargetTracking {
	t.Helper()
	p, err := NewTargetTracking(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTargetTrackingScalesProportionally(t *testing.T) {
	p := newShedPolicy(t, TargetTrackingConfig{TargetShedRate: 10})
	// 1 supplier shedding 95/s against a target of 10/supplier: the
	// fleet that brings the per-supplier rate back to target is 10.
	d := p.Evaluate(at(0), Signals{Live: 1, ShedRate: 95})
	if d.Desired != 10 {
		t.Fatalf("desired = %d (%s), want 10", d.Desired, d.Reason)
	}
}

func TestTargetTrackingUpCooldownBlocksBurst(t *testing.T) {
	p := newShedPolicy(t, TargetTrackingConfig{TargetShedRate: 10, UpCooldown: time.Second})
	if d := p.Evaluate(at(0), Signals{Live: 1, ShedRate: 50}); d.Desired != 5 {
		t.Fatalf("first eval desired = %d, want 5", d.Desired)
	}
	// 200ms later the rate is still high; the cooldown holds the size.
	if d := p.Evaluate(at(200*time.Millisecond), Signals{Live: 2, ShedRate: 60}); d.Desired != 2 {
		t.Fatalf("cooldown eval desired = %d, want hold at 2", d.Desired)
	}
	// Past the cooldown it may grow again.
	if d := p.Evaluate(at(1100*time.Millisecond), Signals{Live: 2, ShedRate: 60}); d.Desired != 6 {
		t.Fatalf("post-cooldown desired = %d, want 6", d.Desired)
	}
}

func TestTargetTrackingQuietWindowThenStepDown(t *testing.T) {
	p := newShedPolicy(t, TargetTrackingConfig{
		TargetShedRate: 10, QuietFor: 2 * time.Second, DownCooldown: time.Second,
	})
	// Quiet fleet of 3: no immediate shrink (hysteresis).
	if d := p.Evaluate(at(0), Signals{Live: 3, ShedRate: 0}); d.Desired != 3 {
		t.Fatalf("t=0 desired = %d, want hold at 3", d.Desired)
	}
	if d := p.Evaluate(at(time.Second), Signals{Live: 3, ShedRate: 0}); d.Desired != 3 {
		t.Fatalf("t=1s desired = %d, want hold at 3", d.Desired)
	}
	// Quiet for the full window: one supplier goes.
	if d := p.Evaluate(at(2*time.Second), Signals{Live: 3, ShedRate: 0}); d.Desired != 2 {
		t.Fatalf("t=2s desired = %d, want 2", d.Desired)
	}
	// Down cooldown: the next shrink must wait even though still quiet.
	if d := p.Evaluate(at(2500*time.Millisecond), Signals{Live: 2, ShedRate: 0}); d.Desired != 2 {
		t.Fatalf("t=2.5s desired = %d, want hold at 2", d.Desired)
	}
	if d := p.Evaluate(at(3100*time.Millisecond), Signals{Live: 2, ShedRate: 0}); d.Desired != 1 {
		t.Fatalf("t=3.1s desired = %d, want 1", d.Desired)
	}
	// Never below one.
	if d := p.Evaluate(at(10*time.Second), Signals{Live: 1, ShedRate: 0}); d.Desired != 1 {
		t.Fatalf("t=10s desired = %d, want floor 1", d.Desired)
	}
}

func TestTargetTrackingBandResetsQuiet(t *testing.T) {
	p := newShedPolicy(t, TargetTrackingConfig{
		TargetShedRate: 10, DownFraction: 0.1, QuietFor: 2 * time.Second,
	})
	if d := p.Evaluate(at(0), Signals{Live: 2, ShedRate: 0}); d.Desired != 2 {
		t.Fatalf("t=0: %+v", d)
	}
	// A blip into the hysteresis band (0.5/supplier < rate < target)
	// resets the quiet window.
	if d := p.Evaluate(at(time.Second), Signals{Live: 2, ShedRate: 8}); d.Desired != 2 {
		t.Fatalf("band eval: %+v", d)
	}
	// 2s after the original quiet start but only 1s after the blip: no
	// shrink yet.
	if d := p.Evaluate(at(2*time.Second), Signals{Live: 2, ShedRate: 0}); d.Desired != 2 {
		t.Fatalf("post-blip eval should hold: %+v", d)
	}
	if d := p.Evaluate(at(4*time.Second), Signals{Live: 2, ShedRate: 0}); d.Desired != 1 {
		t.Fatalf("quiet re-elapsed: %+v, want desired 1", d)
	}
}

func TestTargetTrackingDeterministic(t *testing.T) {
	script := []struct {
		at  time.Duration
		sig Signals
	}{
		{0, Signals{Live: 1, ShedRate: 0}},
		{500 * time.Millisecond, Signals{Live: 1, ShedRate: 42}},
		{time.Second, Signals{Live: 3, ShedRate: 40}},
		{3 * time.Second, Signals{Live: 5, ShedRate: 0}},
		{6 * time.Second, Signals{Live: 5, ShedRate: 0}},
	}
	run := func() []int {
		p := newShedPolicy(t, TargetTrackingConfig{TargetShedRate: 10})
		var out []int
		for _, s := range script {
			out = append(out, p.Evaluate(at(s.at), s.sig).Desired)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at step %d: %v vs %v", i, a, b)
		}
	}
}

func TestTargetTrackingConfigValidation(t *testing.T) {
	if _, err := NewTargetTracking(TargetTrackingConfig{}); err == nil {
		t.Fatal("zero TargetShedRate accepted")
	}
	if _, err := NewTargetTracking(TargetTrackingConfig{TargetShedRate: 1, DownFraction: 1.5}); err == nil {
		t.Fatal("DownFraction >= 1 accepted")
	}
}
