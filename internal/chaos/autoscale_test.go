package chaos

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/flow"
	"repro/internal/leakcheck"
	"repro/internal/registry"
	"repro/internal/transport"
)

// scriptedPolicy is a Policy whose desired fleet size the test sets
// directly — the chaos scenario controls exactly when the autoscaler
// decides to shrink, so the drain races a job mid-flight by
// construction rather than by timing luck.
type scriptedPolicy struct {
	mu      sync.Mutex
	desired int
}

func (p *scriptedPolicy) Name() string { return "scripted" }

func (p *scriptedPolicy) Evaluate(time.Time, autoscale.Signals) autoscale.Decision {
	p.mu.Lock()
	defer p.mu.Unlock()
	return autoscale.Decision{Desired: p.desired, Reason: "scripted"}
}

func (p *scriptedPolicy) set(n int) {
	p.mu.Lock()
	p.desired = n
	p.mu.Unlock()
}

// liveSuppliers counts the registry's non-draining registrations by the
// autoscaler's own rule, Sample.Live.
func liveSuppliers(c *registry.Client) (int, error) {
	m, err := c.FetchMap()
	if err != nil {
		return 0, err
	}
	var s autoscale.Sample
	for _, info := range m.Suppliers {
		s.Suppliers = append(s.Suppliers, autoscale.SupplierSample{Draining: info.Draining})
	}
	return s.Live(), nil
}

// TestChaosAutoscaleDrain drives the autoscaler's scale-down path
// against a live job: two in-process supplier daemons serve a fleet of
// registry-resolved fetches while the autoscaler — told by a scripted
// policy to shrink — drains the newest supplier mid-flight. The chaos
// invariants all hold: every fetch that raced the drain delivers bytes
// identical to the on-disk fixture, every shed is retried, and after
// full teardown no goroutine survives.
func TestChaosAutoscaleDrain(t *testing.T) {
	const (
		tasks    = 3
		parts    = 2
		segBytes = 24 << 10
		passes   = 6
		workers  = 4
	)
	snap := leakcheck.Take()

	srv, err := registry.NewServer(registry.ServerConfig{
		Addr:     "127.0.0.1:0",
		LeaseTTL: 2 * time.Second,
	})
	if err != nil {
		t.Fatalf("start registry: %v", err)
	}
	defer srv.Close()

	dir := t.TempDir()
	if err := daemon.WriteFixture(dir, tasks, parts, segBytes, 4242); err != nil {
		t.Fatalf("write fixture: %v", err)
	}
	reference, err := daemon.LoadReference(dir, tasks, parts)
	if err != nil {
		t.Fatalf("load reference: %v", err)
	}

	// A tight admission budget (under two segments plus queue headroom)
	// so the racing workers shed: the drain must interleave with parked
	// retries, not just clean fetches.
	launcher := &autoscale.InProcessLauncher{
		Template: daemon.SupplierConfig{
			Addr:         "127.0.0.1:0",
			RegistryAddr: srv.Addr(),
			MOFDir:       dir,
			Flow: &flow.Config{
				AdmitBytes: 32 << 10,
				RetryAfter: 2 * time.Millisecond,
			},
			HeartbeatInterval: 50 * time.Millisecond,
		},
	}
	rc := registry.NewClient(srv.Addr())
	defer rc.Close()
	script := &scriptedPolicy{desired: 2}
	as, err := autoscale.New(autoscale.Config{
		Collector: &autoscale.FleetCollector{Registry: rc},
		Policy:    script,
		Launcher:  launcher,
		Max:       3,
		Log:       t.Logf,
	})
	if err != nil {
		t.Fatalf("new autoscaler: %v", err)
	}
	defer as.Close()

	// Tick 1: the scripted policy wants two suppliers; both launch and
	// register before the job starts.
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	if err := as.Tick(base); err != nil {
		t.Fatalf("scale-up tick: %v", err)
	}
	if got, err := liveSuppliers(rc); got != 2 {
		t.Fatalf("fleet after scale-up: %d live suppliers (%v), want 2", got, err)
	}

	// The tenant resolves through the registry with a short cache TTL so
	// the post-drain handoff is picked up within a retry backoff.
	mrc := registry.NewClient(srv.Addr())
	defer mrc.Close()
	resolver := registry.NewResolver(mrc, 10*time.Millisecond)
	merger, err := core.NewNetMerger(core.MergerConfig{
		Transport:     transport.NewTCP(),
		WindowPerNode: 2,
		MaxRetries:    12,
		RetryBackoff:  2 * time.Millisecond,
		Flow: &flow.Config{
			AdmitBytes: 32 << 10,
			RetryAfter: 2 * time.Millisecond,
		},
		Resolver: func(spec core.FetchSpec) (string, error) {
			return resolver.Resolve(spec.MapTask)
		},
	})
	if err != nil {
		t.Fatalf("new merger: %v", err)
	}
	defer merger.Close()

	var specs []core.FetchSpec
	for pass := 0; pass < passes; pass++ {
		for ti := 0; ti < tasks; ti++ {
			for p := 0; p < parts; p++ {
				specs = append(specs, core.FetchSpec{MapTask: fmt.Sprintf("m-%05d", ti), Partition: p})
			}
		}
	}

	// Launch the job, then immediately drain: Tick retires the newest
	// supplier through daemon.Drain while the workers are mid-grid, so
	// fetches land before, during, and after the handoff.
	in := make(chan core.FetchSpec, len(specs))
	out := make(chan outcome, len(specs))
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for spec := range in {
				var data []byte
				delivered := false
				err := merger.Fetch([]core.FetchSpec{spec}, func(_ core.FetchSpec, b []byte) error {
					data, delivered = bytes.Clone(b), true // lent only until deliver returns
					return nil
				})
				if err == nil && !delivered {
					err = fmt.Errorf("fetch returned without delivering or failing")
				}
				out <- outcome{spec: spec, data: data, err: err}
			}
		}()
	}
	for _, s := range specs {
		in <- s
	}
	close(in)

	script.set(1)
	if err := as.Tick(base.Add(time.Second)); err != nil {
		t.Fatalf("scale-down tick: %v", err)
	}
	if got := as.Managed(); len(got) != 1 || got[0] != "auto-1" {
		t.Fatalf("managed fleet after drain: %v, want [auto-1]", got)
	}
	if got, err := liveSuppliers(rc); got != 1 {
		t.Fatalf("fleet after drain: %d live suppliers (%v), want 1", got, err)
	}

	wg.Wait()
	close(out)
	stats := merger.Stats()

	// Invariant 1 — byte identity: every fetch that raced the drain
	// delivered exactly the on-disk fixture bytes.
	delivered := 0
	for o := range out {
		if o.err != nil {
			t.Errorf("fetch %s/%d failed across the drain: %v", o.spec.MapTask, o.spec.Partition, o.err)
			continue
		}
		delivered++
		if want := reference[o.spec]; !bytes.Equal(o.data, want) {
			t.Errorf("fetch %s/%d delivered %d bytes not identical to fixture (%d bytes)",
				o.spec.MapTask, o.spec.Partition, len(o.data), len(want))
		}
	}
	// Invariant 3 — conservation: everything terminated exactly once and
	// no shed was stranded.
	if delivered != len(specs) {
		t.Errorf("%d of %d fetches delivered", delivered, len(specs))
	}
	if stats.Sheds != stats.ShedRetries {
		t.Errorf("%d sheds but %d shed retries — a parked fetch was stranded across the drain", stats.Sheds, stats.ShedRetries)
	}
	t.Logf("drain race: %d fetches, retries=%d sheds=%d rerouted=%d", len(specs), stats.Retries, stats.Sheds, stats.Rerouted)

	// Invariant 2 — zero goroutine leaks after full teardown (merger,
	// surviving supplier, autoscaler, registry, clients).
	if err := merger.Close(); err != nil {
		t.Errorf("merger close: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Close-then-RetireAll is the documented shutdown order: the loop
	// must stop before the fleet shrinks so no tick can relaunch.
	if err := as.Close(); err != nil {
		t.Errorf("autoscaler close: %v", err)
	}
	if err := as.RetireAll(ctx); err != nil {
		t.Errorf("retire surviving fleet: %v", err)
	}
	if err := rc.Close(); err != nil {
		t.Errorf("registry client close: %v", err)
	}
	if err := mrc.Close(); err != nil {
		t.Errorf("merger registry client close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("registry close: %v", err)
	}
	if err := snap.Check(0); err != nil {
		t.Errorf("goroutine leak across autoscale drain: %v", err)
	}
	if err := bufpool.Default().LeakCheck(); err != nil {
		t.Errorf("after the drained fleet and the merger closed: %v", err)
	}
}
