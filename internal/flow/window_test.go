package flow

import "testing"

// windowCfg builds a defaulted config with the given start and ceiling.
func windowCfg(t *testing.T, start, max int) Config {
	t.Helper()
	cfg := Config{WindowStart: start, WindowMax: max}
	if err := cfg.ApplyDefaults(); err != nil {
		t.Fatalf("config: %v", err)
	}
	return cfg
}

// TestWindowAIMD drives the window through scripted event sequences and
// checks the resulting size: additive growth per window-of-deliveries,
// multiplicative collapse, and the floor/ceiling clamps.
func TestWindowAIMD(t *testing.T) {
	type ev byte
	const (
		clean   ev = 'c'
		shed    ev = 's'
		timeout ev = 't'
		credit  ev = '+'
	)
	cases := []struct {
		name   string
		start  int
		max    int
		events []ev
		want   int
	}{
		{
			name:  "no events keeps start",
			start: 4, max: 64,
			events: nil, want: 4,
		},
		{
			name:  "one window of cleans grows one slot",
			start: 4, max: 64,
			// 4 cleans bank 4 units: one full window buys size 5.
			events: []ev{clean, clean, clean, clean}, want: 5,
		},
		{
			name:  "partial window does not grow",
			start: 4, max: 64,
			events: []ev{clean, clean, clean}, want: 4,
		},
		{
			name:  "growth is additive across rounds",
			start: 2, max: 64,
			// 2 cleans -> 3, then 3 cleans -> 4.
			events: []ev{clean, clean, clean, clean, clean}, want: 4,
		},
		{
			name:  "shed halves",
			start: 8, max: 64,
			events: []ev{shed}, want: 4,
		},
		{
			name:  "timeout collapses like shed",
			start: 8, max: 64,
			events: []ev{timeout}, want: 4,
		},
		{
			name:  "repeated sheds clamp at floor",
			start: 8, max: 64,
			events: []ev{shed, shed, shed, shed, shed}, want: 1,
		},
		{
			name:  "growth clamps at ceiling",
			start: 3, max: 4,
			events: []ev{clean, clean, clean, clean, clean, clean, clean, clean, clean}, want: 4,
		},
		{
			name:  "credit grows immediately",
			start: 4, max: 64,
			events: []ev{credit}, want: 5,
		},
		{
			name:  "credit clamps at ceiling",
			start: 4, max: 4,
			events: []ev{credit, credit}, want: 4,
		},
		{
			name:  "shed forfeits banked growth",
			start: 4, max: 64,
			// 3 banked cleans are wiped by the shed (4 -> 2); the next 2
			// cleans then buy exactly one slot back.
			events: []ev{clean, clean, clean, shed, clean, clean}, want: 3,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := NewWindow(windowCfg(t, c.start, c.max), nil)
			for _, e := range c.events {
				switch e {
				case clean:
					w.OnClean()
				case shed:
					w.OnShed()
				case timeout:
					w.OnTimeout()
				case credit:
					w.OnCredit()
				}
			}
			if got := w.Limit(); got != c.want {
				t.Errorf("after %q: Limit() = %d, want %d", c.events, got, c.want)
			}
			st := w.State()
			if st.Size != w.Limit() || st.Min != 1 || st.Max != c.max {
				t.Errorf("State() = %+v inconsistent with window", st)
			}
		})
	}
}

// TestWindowGaugeMirror checks the registry gauge tracks every size move.
func TestWindowGaugeMirror(t *testing.T) {
	g := WindowGauge("test-node:1")
	w := NewWindow(windowCfg(t, 4, 64), g)
	if g.Load() != 4 {
		t.Fatalf("gauge = %d after creation, want 4", g.Load())
	}
	w.OnShed()
	if g.Load() != 2 {
		t.Errorf("gauge = %d after shed, want 2", g.Load())
	}
	w.OnCredit()
	if g.Load() != 3 {
		t.Errorf("gauge = %d after credit, want 3", g.Load())
	}
}
