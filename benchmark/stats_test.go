package main

import (
	"math"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {9, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(v, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %g) = %g, want %g", v, c.p, got, c.want)
		}
	}
	if v[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median of four = %g, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %g, want 0", got)
	}
}

// TestSpreadMatchesPython pins spread to statistics.quantiles(v, n=4),
// the quartiles the driver takes: for 1..10 they are 2.75 and 8.25.
func TestSpreadMatchesPython(t *testing.T) {
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread(1..10) = %g, want %g", got, want)
	}
	// Python: quantiles([1.0, 2.0, 4.0], n=4) == [1.0, 2.0, 4.0].
	if got, want := spread([]float64{1, 2, 4}), 1.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread(1,2,4) = %g, want %g", got, want)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %g, want 0", got)
	}
}

// TestEndToEndMediansOverWindows: a run's rates and costs are medians over
// its windows, so one window spoiled by a noisy spell moves none of them.
func TestEndToEndMediansOverWindows(t *testing.T) {
	clean := window{seconds: 0.5, bytes: 50e6, segments: 100, cpuSeconds: 1, allocBytes: 100e6, rssMB: 300}
	slow := window{seconds: 2, bytes: 50e6, segments: 100, cpuSeconds: 3, allocBytes: 100e6, rssMB: 900}
	stalled := window{seconds: 0.5}
	s := &sample{opSeconds: []float64{0.5, 0.5, 2, 0.5}, windows: []window{clean, slow, clean, stalled, clean}}
	got := make(map[string]float64)
	endToEnd(s, got)
	want := map[string]float64{"op_p50_ms": 500, "shuffle_mb_per_s": 100, "fetches_per_s": 200,
		"cpu_s_per_gb": 20, "alloc_bytes_per_byte": 2, "rss_mb": 300}
	for name, v := range want {
		if math.Abs(got[name]-v) > 1e-9*v {
			t.Errorf("%s = %g, want %g", name, got[name], v)
		}
	}
}
