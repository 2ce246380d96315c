package daemon

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/registry"
)

func newTestRegistry(t *testing.T, cfg registry.ServerConfig) *registry.Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	s, err := registry.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestDirLookupRejectsTraversal(t *testing.T) {
	lookup := DirLookup(t.TempDir())
	for _, task := range []string{"", ".", "..", "../etc/passwd", "a/b", `a\b`, "..secret.."} {
		if _, _, err := lookup(task); err == nil {
			t.Errorf("task %q resolved outside the MOF dir", task)
		}
	}
}

func startTestSupplier(t *testing.T, reg *registry.Server, id, dir string) *Supplier {
	t.Helper()
	d, err := StartSupplier(SupplierConfig{
		ID:                id,
		RegistryAddr:      reg.Addr(),
		MOFDir:            dir,
		HeartbeatInterval: 50 * time.Millisecond,
		Log:               t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// settle waits, bounded, until each supplier's pipeline is empty. A
// supplier adds a fetch's BytesServed after its last chunk's Send returns,
// which can trail the merger's delivery; Inflight() reads 0 only after.
func settle(t *testing.T, sups ...*Supplier) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, s := range sups {
		for s.sup.Inflight() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("supplier %s never settled: %d fetches in its pipeline", s.ID(), s.sup.Inflight())
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestSupplierDaemonLifecycle walks the full multi-process topology
// in-process: registry, two supplier daemons over one MOF directory, a
// registry-addressed merger job; then drains one supplier mid-topology
// and re-runs the job, asserting the handoff lost nothing.
func TestSupplierDaemonLifecycle(t *testing.T) {
	const tasks, parts = 4, 3
	dir := t.TempDir()
	if err := WriteFixture(dir, tasks, parts, 4096, 42); err != nil {
		t.Fatal(err)
	}
	reg := newTestRegistry(t, registry.ServerConfig{})
	a := startTestSupplier(t, reg, "sup-a", dir)
	b := startTestSupplier(t, reg, "sup-b", dir)

	job := MergerJobConfig{
		RegistryAddr: reg.Addr(),
		Tasks:        tasks,
		Parts:        parts,
		VerifyDir:    dir,
		ResolverTTL:  20 * time.Millisecond,
		Progress:     t.Logf,
	}
	st, err := RunMergerJob(job)
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments != tasks*parts || st.Errors != 0 {
		t.Fatalf("stats = %+v", st)
	}
	settle(t, a, b)
	if a.Stats().BytesServed+b.Stats().BytesServed != st.Bytes {
		t.Fatalf("supplier bytes %d+%d != merger bytes %d",
			a.Stats().BytesServed, b.Stats().BytesServed, st.Bytes)
	}

	// Drain A: ownership moves to B, then A's pipeline runs dry.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := a.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	settle(t, a, b)
	served := b.Stats().BytesServed
	st2, err := RunMergerJob(job)
	if err != nil {
		t.Fatalf("job after drain: %v", err)
	}
	if st2.Segments != tasks*parts || st2.Errors != 0 {
		t.Fatalf("stats after drain = %+v", st2)
	}
	settle(t, a, b)
	if b.Stats().BytesServed-served != st2.Bytes {
		t.Fatal("post-drain job not served entirely by the surviving supplier")
	}
}

// TestDrainMidJobIsLossless overlaps the drain with a running job: a
// multi-round merger job is underway when one supplier drains; every
// in-flight and future fetch must complete, rerouted to the peer.
func TestDrainMidJobIsLossless(t *testing.T) {
	const tasks, parts, rounds = 4, 3, 12
	dir := t.TempDir()
	if err := WriteFixture(dir, tasks, parts, 8192, 7); err != nil {
		t.Fatal(err)
	}
	reg := newTestRegistry(t, registry.ServerConfig{})
	a := startTestSupplier(t, reg, "sup-a", dir)
	b := startTestSupplier(t, reg, "sup-b", dir)
	_ = b

	drained := make(chan struct{})
	var once sync.Once
	job := MergerJobConfig{
		RegistryAddr: reg.Addr(),
		Tasks:        tasks,
		Parts:        parts,
		Rounds:       rounds,
		VerifyDir:    dir,
		ResolverTTL:  10 * time.Millisecond,
		MaxRetries:   8,
		Progress: func(format string, args ...any) {
			t.Logf(format, args...)
			// Kick the drain off after the first round completes, so it
			// overlaps the remaining rounds.
			once.Do(func() {
				go func() {
					defer close(drained)
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					defer cancel()
					if err := a.Drain(ctx); err != nil {
						t.Errorf("mid-job drain: %v", err)
						return
					}
					if err := a.Close(); err != nil {
						t.Errorf("mid-job close: %v", err)
					}
				}()
			})
		},
	}
	st, err := RunMergerJob(job)
	if err != nil {
		t.Fatalf("mid-drain job: %v", err)
	}
	<-drained
	if st.Segments != tasks*parts*rounds || st.Errors != 0 {
		t.Fatalf("stats = %+v, want %d segments and no errors", st, tasks*parts*rounds)
	}
}

// TestHeartbeatBackoff pins the failure-backoff shape deterministically:
// exponential growth from the heartbeat interval, equal jitter bounded
// to [base/2, base), and a hard cap at 8x the interval.
func TestHeartbeatBackoff(t *testing.T) {
	const interval = 100 * time.Millisecond
	for streak := 1; streak <= 10; streak++ {
		base := interval << (streak - 1)
		if limit := maxHeartbeatBackoffFactor * interval; base > limit {
			base = limit
		}
		lo := heartbeatBackoff(streak, interval, 0)
		hi := heartbeatBackoff(streak, interval, 0.999999)
		if lo != base/2 {
			t.Errorf("streak %d: rnd=0 backoff = %v, want %v", streak, lo, base/2)
		}
		if hi < lo || hi >= base {
			t.Errorf("streak %d: rnd~1 backoff = %v, want in [%v, %v)", streak, hi, lo, base)
		}
	}
	// Determinism: identical inputs produce identical outputs.
	if a, b := heartbeatBackoff(3, interval, 0.5), heartbeatBackoff(3, interval, 0.5); a != b {
		t.Errorf("backoff not deterministic: %v vs %v", a, b)
	}
	// The cap holds for absurd streaks (a long registry outage).
	if got, want := heartbeatBackoff(1000, interval, 0), maxHeartbeatBackoffFactor*interval/2; got != want {
		t.Errorf("streak 1000: backoff = %v, want capped %v", got, want)
	}
}

// TestHeartbeatReregistersAfterLeaseLoss pins the daemon's recovery
// from a lease collapse (GC pause, network partition): the next
// heartbeat learns the lease is gone and re-registers the same ID.
func TestHeartbeatReregistersAfterLeaseLoss(t *testing.T) {
	dir := t.TempDir()
	if err := WriteFixture(dir, 1, 1, 1024, 1); err != nil {
		t.Fatal(err)
	}
	reg := newTestRegistry(t, registry.ServerConfig{
		LeaseTTL:      120 * time.Millisecond,
		SweepInterval: 20 * time.Millisecond,
	})
	d, err := StartSupplier(SupplierConfig{
		ID:           "sup-a",
		RegistryAddr: reg.Addr(),
		MOFDir:       dir,
		// Heartbeats far slower than the TTL: every lease is lost and
		// every heartbeat must recover it.
		HeartbeatInterval: 300 * time.Millisecond,
		Log:               t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	reregBefore := dmnReregisters.Load()
	c := registry.NewClient(reg.Addr())
	defer c.Close()
	deadline := time.Now().Add(5 * time.Second)
	recovered := false
	lost := false
	for time.Now().Before(deadline) && !recovered {
		m, err := c.FetchMap()
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Suppliers) == 0 {
			lost = true
		} else if lost {
			recovered = true
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !lost || !recovered {
		t.Fatalf("lease loss/recovery not observed (lost=%v recovered=%v)", lost, recovered)
	}
	if got := dmnReregisters.Load(); got <= reregBefore {
		t.Fatalf("jbs_daemon_reregister_total did not advance (%d -> %d)", reregBefore, got)
	}
	if len(d.ID()) == 0 || !strings.HasPrefix(d.ID(), "sup-") {
		t.Fatalf("id = %q", d.ID())
	}
}

// TestRetryRotatesToReplicaWithoutHedging closes one supplier's fetch
// listener while its heartbeats keep its lease, so the registry names it
// an owner for the whole job. With two replicas per shard, a failed
// fetch must retry at the shard's other replica whether or not the job
// hedges: rotation on retry is what replication buys even unhedged.
func TestRetryRotatesToReplicaWithoutHedging(t *testing.T) {
	const tasks, parts = 4, 3
	for _, hedge := range []bool{false, true} {
		t.Run(fmt.Sprintf("hedge=%v", hedge), func(t *testing.T) {
			dir := t.TempDir()
			if err := WriteFixture(dir, tasks, parts, 4096, 3); err != nil {
				t.Fatal(err)
			}
			reg := newTestRegistry(t, registry.ServerConfig{Replicas: 2, LeaseTTL: time.Minute})
			a := startTestSupplier(t, reg, "sup-a", dir)
			startTestSupplier(t, reg, "sup-b", dir)
			if err := a.sup.Close(); err != nil {
				t.Fatal(err)
			}
			st, err := RunMergerJob(MergerJobConfig{
				RegistryAddr: reg.Addr(),
				Tasks:        tasks,
				Parts:        parts,
				VerifyDir:    dir,
				MaxRetries:   3,
				Hedge:        hedge,
				Progress:     t.Logf,
			})
			if err != nil {
				t.Fatalf("job with a dead replica: %v (stats %+v)", err, st)
			}
			// Retries > 0: sup-a owned some of the grid's shards, so the
			// job did meet the dead listener.
			if st.Segments != tasks*parts || st.Errors != 0 || st.Retries == 0 {
				t.Fatalf("stats = %+v, want %d segments, no errors, and retries off the dead replica", st, tasks*parts)
			}
		})
	}
}

// TestStartSupplierRejectsNegativeSettings: zero means the default, and
// a negative setting is refused by name before the supplier registers.
// A negative heartbeat used to panic the heartbeat loop after
// registration; a negative admission budget is what jbssupplierd passes
// for a negative -admit-bytes.
func TestStartSupplierRejectsNegativeSettings(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  SupplierConfig
	}{
		{"HeartbeatInterval", SupplierConfig{HeartbeatInterval: -time.Second}},
		{"AdmitBytes", SupplierConfig{Flow: &flow.Config{AdmitBytes: -1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := newTestRegistry(t, registry.ServerConfig{})
			cfg := tc.cfg
			cfg.RegistryAddr = reg.Addr()
			cfg.MOFDir = t.TempDir()
			d, err := StartSupplier(cfg)
			if err == nil {
				d.Close()
				t.Fatalf("negative %s accepted", tc.name)
			}
			if !strings.Contains(err.Error(), tc.name) {
				t.Fatalf("error %q does not name %s", err, tc.name)
			}
			c := registry.NewClient(reg.Addr())
			defer c.Close()
			if m, err := c.FetchMap(); err != nil || len(m.Suppliers) != 0 {
				t.Fatalf("refused supplier registered anyway: %+v (err %v)", m, err)
			}
		})
	}
}
