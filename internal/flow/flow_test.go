package flow

import (
	"strings"
	"testing"
	"time"
)

func TestApplyDefaultsFillsZeroes(t *testing.T) {
	var cfg Config
	if err := cfg.ApplyDefaults(); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	if cfg.AdmitBytes != DefaultAdmitBytes {
		t.Errorf("AdmitBytes = %d, want %d", cfg.AdmitBytes, DefaultAdmitBytes)
	}
	if cfg.RetryAfter != DefaultRetryAfter {
		t.Errorf("RetryAfter = %v, want %v", cfg.RetryAfter, DefaultRetryAfter)
	}
	if cfg.WindowStart != DefaultWindowStart || cfg.WindowMax != DefaultWindowMax {
		t.Errorf("window defaults = start %d max %d", cfg.WindowStart, cfg.WindowMax)
	}
	if l := NewLedger(cfg).State(); l.Budget != DefaultAdmitBytes || l.Limit != DefaultAdmitBytes*3/2 {
		t.Errorf("ledger budget %d limit %d, want %d and half as much again",
			l.Budget, l.Limit, DefaultAdmitBytes)
	}
}

// TestApplyDefaultsRejectsByName checks every invalid field is rejected
// with an error naming the field — the config convention shared with
// internal/core.
func TestApplyDefaultsRejectsByName(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string // substring the error must contain
	}{
		{"negative AdmitBytes", Config{AdmitBytes: -1}, "AdmitBytes"},
		{"negative RetryAfter", Config{RetryAfter: -time.Millisecond}, "RetryAfter"},
		{"negative WindowStart", Config{WindowStart: -1}, "WindowStart"},
		{"negative WindowMax", Config{WindowMax: -3}, "WindowMax"},
		{"zero tenant weight", Config{Weights: map[string]int64{"j": 0}}, `tenant "j"`},
		{"negative tenant weight", Config{Weights: map[string]int64{"k": -2}}, `tenant "k"`},
		{"start above max", Config{WindowStart: 9, WindowMax: 8}, "WindowStart"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.cfg.ApplyDefaults()
			if err == nil {
				t.Fatalf("config %+v accepted, want error naming %s", c.cfg, c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not name %q", err, c.want)
			}
		})
	}
}

func TestDecisionString(t *testing.T) {
	for d, want := range map[Decision]string{Accept: "accept", Queue: "queue", Shed: "shed", Decision(99): "unknown"} {
		if got := d.String(); got != want {
			t.Errorf("Decision(%d).String() = %q, want %q", d, got, want)
		}
	}
}
