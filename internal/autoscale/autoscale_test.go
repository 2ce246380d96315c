package autoscale

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeLauncher records launches, retirements, and kills.
type fakeLauncher struct {
	mu        sync.Mutex
	launched  []string
	retired   []string
	killed    []string
	launchErr error
	retireErr error
}

func (l *fakeLauncher) Launch(id string) (Instance, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.launchErr != nil {
		return nil, l.launchErr
	}
	l.launched = append(l.launched, id)
	return &fakeInstance{id: id, l: l}, nil
}

func (l *fakeLauncher) launchedIDs() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.launched...)
}

func (l *fakeLauncher) retiredIDs() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.retired...)
}

func (l *fakeLauncher) killedIDs() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.killed...)
}

type fakeInstance struct {
	id string
	l  *fakeLauncher
}

func (f *fakeInstance) ID() string { return f.id }

func (f *fakeInstance) Retire(ctx context.Context) error {
	f.l.mu.Lock()
	defer f.l.mu.Unlock()
	f.l.retired = append(f.l.retired, f.id)
	return f.l.retireErr
}

func (f *fakeInstance) Kill() error {
	f.l.mu.Lock()
	defer f.l.mu.Unlock()
	f.l.killed = append(f.l.killed, f.id)
	return nil
}

// fakeCollector serves a scripted sample.
type fakeCollector struct {
	mu     sync.Mutex
	sample Sample
	err    error
}

func (c *fakeCollector) Collect() (Sample, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sample, c.err
}

func (c *fakeCollector) set(s Sample) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sample = s
}

// fixedPolicy wants a scripted fleet size regardless of signals.
type fixedPolicy struct {
	mu      sync.Mutex
	desired int
}

func (p *fixedPolicy) Name() string { return "fixed" }

func (p *fixedPolicy) Evaluate(now time.Time, sig Signals) Decision {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Decision{Desired: p.desired, Reason: "scripted"}
}

func (p *fixedPolicy) set(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.desired = n
}

// recordPolicy holds at the current size and keeps every Signals it saw.
type recordPolicy struct {
	mu   sync.Mutex
	sigs []Signals
}

func (p *recordPolicy) Name() string { return "record" }

func (p *recordPolicy) Evaluate(now time.Time, sig Signals) Decision {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sigs = append(p.sigs, sig)
	return Decision{Desired: sig.Live, Reason: "hold"}
}

func (p *recordPolicy) last(t *testing.T) Signals {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.sigs) == 0 {
		t.Fatal("policy never evaluated")
	}
	return p.sigs[len(p.sigs)-1]
}

func newTestAutoscaler(t *testing.T, cfg Config) *Autoscaler {
	t.Helper()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	return a
}

func supplierIDs(ids ...string) Sample {
	s := Sample{Epoch: 1}
	for _, id := range ids {
		s.Suppliers = append(s.Suppliers, SupplierSample{ID: id, Addr: id + ":1"})
	}
	return s
}

func TestNewValidatesConfig(t *testing.T) {
	col := &fakeCollector{}
	l := &fakeLauncher{}
	pol := &fixedPolicy{}
	for name, cfg := range map[string]Config{
		"nil collector": {Launcher: l, Policy: pol},
		"nil launcher":  {Collector: col, Policy: pol},
		"no policy":     {Collector: col, Launcher: l},
		"negative max":  {Collector: col, Launcher: l, Policy: pol, Max: -1},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: config accepted", name)
		}
	}
}

func TestTickLaunchesToFloor(t *testing.T) {
	l := &fakeLauncher{}
	a := newTestAutoscaler(t, Config{
		Collector: &fakeCollector{},
		Launcher:  l,
		Policy:    &fixedPolicy{desired: 0},
		Max:       4,
	})
	if err := a.Tick(at(0)); err != nil {
		t.Fatal(err)
	}
	if got := l.launchedIDs(); len(got) != 1 || got[0] != "auto-1" {
		t.Fatalf("launched = %v, want [auto-1]", got)
	}
	st := a.AutoscaleState()
	if st.Desired != 1 || st.Min != 1 || !strings.Contains(st.LastReason, "floor") {
		t.Fatalf("state desired=%d min=%d reason=%q, want floor to 1", st.Desired, st.Min, st.LastReason)
	}
	if len(st.Events) != 1 || st.Events[0].Action != "up" || st.Events[0].From != 0 || st.Events[0].To != 1 {
		t.Fatalf("events = %+v, want one up 0->1", st.Events)
	}
}

func TestTickClampsToMax(t *testing.T) {
	l := &fakeLauncher{}
	a := newTestAutoscaler(t, Config{
		Collector: &fakeCollector{},
		Launcher:  l,
		Policy:    &fixedPolicy{desired: 10},
		Max:       2,
	})
	if err := a.Tick(at(0)); err != nil {
		t.Fatal(err)
	}
	if got := l.launchedIDs(); len(got) != 2 {
		t.Fatalf("launched %v, want 2 instances (clamped)", got)
	}
	st := a.AutoscaleState()
	if st.Desired != 2 || !strings.Contains(st.LastReason, "ceiling") {
		t.Fatalf("state desired=%d reason=%q, want ceiling at 2", st.Desired, st.LastReason)
	}
}

func TestPendingLaunchGracePreventsDoubleLaunch(t *testing.T) {
	l := &fakeLauncher{}
	col := &fakeCollector{}
	a := newTestAutoscaler(t, Config{
		Collector:   col,
		Launcher:    l,
		Policy:      &fixedPolicy{desired: 2},
		Max:         4,
		LaunchGrace: 5 * time.Second,
	})
	if err := a.Tick(at(0)); err != nil {
		t.Fatal(err)
	}
	if got := l.launchedIDs(); len(got) != 2 {
		t.Fatalf("first tick launched %v, want 2", got)
	}
	// The registry has not seen the launches yet; inside the grace
	// window they still fill fleet slots, so the next tick must not
	// launch again.
	if err := a.Tick(at(time.Second)); err != nil {
		t.Fatal(err)
	}
	if got := l.launchedIDs(); len(got) != 2 {
		t.Fatalf("grace tick launched %v, want still 2", got)
	}
	st := a.AutoscaleState()
	if st.Live != 2 || st.Pending != 2 {
		t.Fatalf("state live=%d pending=%d, want 2 pending launches counted", st.Live, st.Pending)
	}
	// Past the grace window an instance that never registered stops
	// counting; the autoscaler replaces it.
	if err := a.Tick(at(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if got := l.launchedIDs(); len(got) != 4 {
		t.Fatalf("post-grace tick launched %v, want replacements (4 total)", got)
	}
	// The original launches finally register: the fleet now reads 4 (two
	// registered plus the two pending replacements) and the surplus is
	// drained, newest first.
	col.set(supplierIDs("auto-1", "auto-2"))
	if err := a.Tick(at(11 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if got := l.retiredIDs(); len(got) != 2 || got[0] != "auto-4" || got[1] != "auto-3" {
		t.Fatalf("retired = %v, want surplus [auto-4 auto-3]", got)
	}
	// With the replacements gone and the originals registered, the
	// fleet settles: no pending, no further churn.
	if err := a.Tick(at(12 * time.Second)); err != nil {
		t.Fatal(err)
	}
	st = a.AutoscaleState()
	if st.Live != 2 || st.Pending != 0 {
		t.Fatalf("settled state = %+v, want live 2 pending 0", st)
	}
	if got := l.launchedIDs(); len(got) != 4 {
		t.Fatalf("settled fleet launched again: %v", got)
	}
}

func TestScaleDownRetiresNewestManagedOnly(t *testing.T) {
	l := &fakeLauncher{}
	col := &fakeCollector{}
	pol := &fixedPolicy{desired: 3}
	col.set(supplierIDs("ext-1"))
	a := newTestAutoscaler(t, Config{
		Collector: col,
		Launcher:  l,
		Policy:    pol,
		Max:       4,
	})
	if err := a.Tick(at(0)); err != nil {
		t.Fatal(err)
	}
	if got := l.launchedIDs(); len(got) != 2 {
		t.Fatalf("launched %v, want 2 alongside ext-1", got)
	}
	// Everyone registered; policy now wants 1. Only the autoscaler's own
	// instances are eligible, newest first — ext-1 is untouchable.
	col.set(supplierIDs("ext-1", "auto-1", "auto-2"))
	pol.set(1)
	if err := a.Tick(at(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if got := l.retiredIDs(); len(got) != 2 || got[0] != "auto-2" || got[1] != "auto-1" {
		t.Fatalf("retired = %v, want [auto-2 auto-1] (newest first)", got)
	}
	if got := a.Managed(); len(got) != 0 {
		t.Fatalf("managed after scale-down = %v, want none", got)
	}
	st := a.AutoscaleState()
	var down *Event
	for i := range st.Events {
		if st.Events[i].Action == "down" {
			down = &st.Events[i]
		}
	}
	if down == nil || down.From != 3 || down.To != 1 {
		t.Fatalf("events = %+v, want a down 3->1", st.Events)
	}
	// Nothing left to retire: a further shrink request holds.
	col.set(supplierIDs("ext-1", "ext-2"))
	if err := a.Tick(at(2 * time.Minute)); err != nil {
		t.Fatal(err)
	}
	if got := l.retiredIDs(); len(got) != 2 {
		t.Fatalf("unmanaged suppliers were retired: %v", got)
	}
	if st := a.AutoscaleState(); !strings.Contains(st.LastReason, "no managed instance") {
		t.Fatalf("reason = %q, want held-no-managed note", st.LastReason)
	}
}

func TestSignalsDigestsSamples(t *testing.T) {
	col := &fakeCollector{}
	pol := &recordPolicy{}
	a := newTestAutoscaler(t, Config{
		Collector: col,
		Launcher:  &fakeLauncher{},
		Policy:    pol,
		Max:       4,
	})
	col.set(Sample{Epoch: 3, Suppliers: []SupplierSample{
		{ID: "a", Reachable: true, AdmittedBytes: 500, BudgetBytes: 1000, QueuedBytes: 100, Sheds: 10},
		{ID: "b", Reachable: true, AdmittedBytes: 900, BudgetBytes: 1000, QueuedBytes: 50, Sheds: 5},
	}})
	if err := a.Tick(at(0)); err != nil {
		t.Fatal(err)
	}
	sig := pol.last(t)
	if sig.ShedRate != 0 {
		t.Fatalf("first tick shed rate = %v, want 0 (no previous sample)", sig.ShedRate)
	}
	if sig.Live != 2 || sig.QueuedBytes != 150 || sig.Pressure != 0.9 {
		t.Fatalf("signals = %+v, want live 2, queued 150, pressure 0.9", sig)
	}
	// Two seconds later supplier a shed 20 more: 10 sheds/sec fleet-wide.
	col.set(Sample{Epoch: 3, Suppliers: []SupplierSample{
		{ID: "a", Reachable: true, Sheds: 30},
		{ID: "b", Reachable: true, Sheds: 5},
	}})
	if err := a.Tick(at(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if sig := pol.last(t); sig.ShedRate != 10 {
		t.Fatalf("shed rate = %v, want 10/s", sig.ShedRate)
	}
	// A draining supplier keeps reporting but stops counting as live.
	col.set(Sample{Epoch: 4, Suppliers: []SupplierSample{
		{ID: "a", Reachable: true, Sheds: 30},
		{ID: "b", Reachable: true, Sheds: 5, Draining: true},
	}})
	if err := a.Tick(at(4 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if sig := pol.last(t); sig.Live != 1 {
		t.Fatalf("live with one draining = %d, want 1", sig.Live)
	}
}

func TestCollectErrorSkipsTick(t *testing.T) {
	l := &fakeLauncher{}
	a := newTestAutoscaler(t, Config{
		Collector: &fakeCollector{err: errors.New("registry down")},
		Launcher:  l,
		Policy:    &fixedPolicy{desired: 3},
		Max:       4,
	})
	if err := a.Tick(at(0)); err == nil {
		t.Fatal("tick with failing collector succeeded")
	}
	if got := l.launchedIDs(); len(got) != 0 {
		t.Fatalf("failed collect still launched %v", got)
	}
}

func TestLaunchFailureLeavesFleetUnmanaged(t *testing.T) {
	l := &fakeLauncher{launchErr: errors.New("no binary")}
	a := newTestAutoscaler(t, Config{
		Collector: &fakeCollector{},
		Launcher:  l,
		Policy:    &fixedPolicy{desired: 2},
		Max:       4,
	})
	if err := a.Tick(at(0)); err != nil {
		t.Fatal(err)
	}
	if got := a.Managed(); len(got) != 0 {
		t.Fatalf("managed after failed launch = %v, want none", got)
	}
	if st := a.AutoscaleState(); len(st.Events) != 0 {
		t.Fatalf("failed launch recorded an event: %+v", st.Events)
	}
}

func TestRetireAllDrainsManagedFleet(t *testing.T) {
	l := &fakeLauncher{}
	a := newTestAutoscaler(t, Config{
		Collector: &fakeCollector{},
		Launcher:  l,
		Policy:    &fixedPolicy{desired: 3},
		Max:       4,
	})
	if err := a.Tick(at(0)); err != nil {
		t.Fatal(err)
	}
	if err := a.RetireAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := l.retiredIDs(); len(got) != 3 || got[0] != "auto-3" || got[2] != "auto-1" {
		t.Fatalf("retired = %v, want [auto-3 auto-2 auto-1]", got)
	}
	if got := a.Managed(); len(got) != 0 {
		t.Fatalf("managed after RetireAll = %v", got)
	}
}

// TestRetireFailureEscalatesToKill pins the orphan guard: an instance
// already popped from the managed fleet whose graceful drain fails
// must be killed, not left running where no later tick can reach it.
func TestRetireFailureEscalatesToKill(t *testing.T) {
	l := &fakeLauncher{retireErr: errors.New("sigterm delivery failed")}
	col := &fakeCollector{}
	pol := &fixedPolicy{desired: 2}
	a := newTestAutoscaler(t, Config{
		Collector: col,
		Launcher:  l,
		Policy:    pol,
		Max:       4,
	})
	if err := a.Tick(at(0)); err != nil {
		t.Fatal(err)
	}
	col.set(supplierIDs("auto-1", "auto-2"))
	pol.set(1)
	if err := a.Tick(at(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if got := l.killedIDs(); len(got) != 1 || got[0] != "auto-2" {
		t.Fatalf("killed = %v, want [auto-2] (failed drain escalated)", got)
	}
	if got := a.Managed(); len(got) != 1 || got[0] != "auto-1" {
		t.Fatalf("managed = %v, want [auto-1]", got)
	}
	// A failed retire is not a graceful scale-down; no event records it.
	for _, e := range a.AutoscaleState().Events {
		if e.Action == "down" {
			t.Fatalf("failed retire recorded a down event: %+v", e)
		}
	}
}

// TestRetireAllKillsOnFailure pins the same guard on the shutdown path:
// RetireAll reports the failure but still tears the instance down.
func TestRetireAllKillsOnFailure(t *testing.T) {
	l := &fakeLauncher{retireErr: errors.New("drain wedged")}
	a := newTestAutoscaler(t, Config{
		Collector: &fakeCollector{},
		Launcher:  l,
		Policy:    &fixedPolicy{desired: 2},
		Max:       4,
	})
	if err := a.Tick(at(0)); err != nil {
		t.Fatal(err)
	}
	if err := a.RetireAll(context.Background()); err == nil {
		t.Fatal("RetireAll with failing drains returned nil")
	}
	if got := l.killedIDs(); len(got) != 2 {
		t.Fatalf("killed = %v, want both instances torn down", got)
	}
	if got := a.Managed(); len(got) != 0 {
		t.Fatalf("managed after RetireAll = %v, want none", got)
	}
}

// blockingLauncher hands out instances whose Retire parks until
// released, so a test can observe the autoscaler mid-drain.
type blockingLauncher struct {
	started chan string   // receives the instance id when a Retire begins
	release chan struct{} // closed to let parked Retires finish
}

func (l *blockingLauncher) Launch(id string) (Instance, error) {
	return &blockingInstance{id: id, l: l}, nil
}

type blockingInstance struct {
	id string
	l  *blockingLauncher
}

func (b *blockingInstance) ID() string { return b.id }

func (b *blockingInstance) Retire(ctx context.Context) error {
	b.l.started <- b.id
	<-b.l.release
	return nil
}

func (b *blockingInstance) Kill() error { return nil }

// TestSnapshotNotBlockedByInflightDrain pins the lock split: a drain
// may park for up to daemon.DrainTimeout (30s), and the debug
// endpoint's snapshot must not hang behind it.
func TestSnapshotNotBlockedByInflightDrain(t *testing.T) {
	l := &blockingLauncher{started: make(chan string, 1), release: make(chan struct{})}
	col := &fakeCollector{}
	pol := &fixedPolicy{desired: 2}
	a := newTestAutoscaler(t, Config{
		Collector: col,
		Launcher:  l,
		Policy:    pol,
		Max:       4,
	})
	if err := a.Tick(at(0)); err != nil {
		t.Fatal(err)
	}
	col.set(supplierIDs("auto-1", "auto-2"))
	pol.set(1)
	tickDone := make(chan error, 1)
	go func() { tickDone <- a.Tick(at(time.Minute)) }()
	<-l.started // the drain is now parked inside the act phase

	snapped := make(chan State, 1)
	go func() { snapped <- a.AutoscaleState() }()
	select {
	case st := <-snapped:
		if len(st.Managed) != 1 || st.Managed[0] != "auto-1" {
			t.Errorf("mid-drain managed = %v, want [auto-1] (auto-2 already popped)", st.Managed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AutoscaleState blocked behind an in-flight drain")
	}
	if got := a.Managed(); len(got) != 1 {
		t.Errorf("mid-drain Managed() = %v, want [auto-1]", got)
	}

	close(l.release)
	if err := <-tickDone; err != nil {
		t.Fatal(err)
	}
	st := a.AutoscaleState()
	var down *Event
	for i := range st.Events {
		if st.Events[i].Action == "down" {
			down = &st.Events[i]
		}
	}
	if down == nil || down.From != 2 || down.To != 1 {
		t.Fatalf("events after released drain = %+v, want a down 2->1", st.Events)
	}
}

func TestRunLoopStopsOnClose(t *testing.T) {
	a, err := New(Config{
		Collector: &fakeCollector{},
		Launcher:  &fakeLauncher{},
		Policy:    &fixedPolicy{},
		Interval:  time.Hour, // never fires; the test only exercises start/stop
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Run()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// Close is idempotent.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}
