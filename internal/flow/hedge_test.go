package flow

import (
	"strings"
	"testing"
	"time"
)

func TestRTTRingQuantile(t *testing.T) {
	var r RTTRing
	if got := r.Quantile(0.95); got != 0 {
		t.Fatalf("empty ring quantile = %d, want 0", got)
	}
	for i := int64(1); i <= 64; i++ {
		r.Add(i)
	}
	if r.Len() != 64 {
		t.Fatalf("Len = %d, want 64", r.Len())
	}
	// Rank ⌈q·n⌉ over 1..64: p50 → rank 32, p95 → rank 61, p100 → 64.
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0.5, 32}, {0.95, 61}, {1.0, 64}} {
		if got := r.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%g) = %d, want %d", tc.q, got, tc.want)
		}
	}
}

func TestRTTRingRolls(t *testing.T) {
	var r RTTRing
	for i := int64(1); i <= 200; i++ {
		r.Add(i)
	}
	if r.Len() != rttRingSize {
		t.Fatalf("Len = %d, want %d", r.Len(), rttRingSize)
	}
	// Only the newest 64 samples (137..200) remain: the minimum must
	// have rolled past the old ones.
	if got := r.Quantile(0.0001); got < 137 {
		t.Errorf("oldest retained sample = %d, want >= 137 (ring must forget)", got)
	}
	if got := r.Quantile(1); got != 200 {
		t.Errorf("max = %d, want 200", got)
	}
}

func TestHedgeConfigDefaults(t *testing.T) {
	var c HedgeConfig
	if err := c.ApplyDefaults(); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	if c.Baseline != 0 {
		t.Fatalf("Baseline should stay zero (a meaningful zero): %+v", c)
	}
}

func TestHedgeConfigRejectsByName(t *testing.T) {
	c := HedgeConfig{Baseline: -time.Millisecond}
	if err := c.ApplyDefaults(); err == nil || !strings.Contains(err.Error(), "Baseline") {
		t.Fatalf("negative Baseline: error %v does not name Baseline", err)
	}
}

// TestHedgeThreshold pins the policy: Baseline below 16 samples, 2 × p95
// at or above 16, a 1ms floor, and no cap.
func TestHedgeThreshold(t *testing.T) {
	cfg := HedgeConfig{Baseline: 7 * time.Millisecond}
	if err := cfg.ApplyDefaults(); err != nil {
		t.Fatal(err)
	}
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	// Below 16 samples: the Baseline applies, whatever the RTTs.
	var ring RTTRing
	for i := int64(1); i <= 15; i++ {
		ring.Add(ms(100 * i))
	}
	if got := cfg.Threshold(&ring); got != 7*time.Millisecond {
		t.Fatalf("threshold at 15 samples = %v, want Baseline 7ms", got)
	}
	// 20 samples 1..20ms: p95 is rank 19, so the threshold is 2 × 19ms.
	ring = RTTRing{}
	for i := int64(1); i <= 20; i++ {
		ring.Add(ms(i))
	}
	if got := cfg.Threshold(&ring); got != 38*time.Millisecond {
		t.Fatalf("threshold = %v, want 38ms (2 × p95)", got)
	}
	// At exactly 16 samples the quantile takes over: p95 of 16 is rank 16.
	ring = RTTRing{}
	for i := int64(1); i <= 16; i++ {
		ring.Add(ms(i))
	}
	if got := cfg.Threshold(&ring); got != 32*time.Millisecond {
		t.Fatalf("threshold at 16 samples = %v, want 32ms (2 × p95)", got)
	}
	// Floor: microsecond RTTs clamp up to 1ms.
	var fast RTTRing
	for i := 0; i < 16; i++ {
		fast.Add(int64(10 * time.Microsecond))
	}
	if got := cfg.Threshold(&fast); got != time.Millisecond {
		t.Fatalf("floored threshold = %v, want 1ms", got)
	}
	// No cap: minute-long RTTs give a two-minute threshold.
	var slow RTTRing
	for i := 0; i < 16; i++ {
		slow.Add(int64(time.Minute))
	}
	if got := cfg.Threshold(&slow); got != 2*time.Minute {
		t.Fatalf("threshold = %v, want 2m (uncapped)", got)
	}
	// Zero Baseline with too few samples: disarmed.
	cfg.Baseline = 0
	var cold RTTRing
	if got := cfg.Threshold(&cold); got != 0 {
		t.Fatalf("cold threshold without Baseline = %v, want 0 (disarmed)", got)
	}
}
