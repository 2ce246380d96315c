package chaos

// Process-level chaos: the in-process suite (chaos.go) proves the
// shuffle survives network faults; these scenarios prove it survives
// supplier *process* churn — SIGKILL mid-shuffle, restart under the
// same identity, and SIGTERM graceful drain — with byte-identical
// output. Suppliers are real OS processes (this test binary re-exec'd
// via TestMain's JBS_CHAOS_PROC gate) registered against a real
// registry server; the merger resolves every fetch through the
// ownership map, so a kill is survived by lease expiry + reroute and a
// drain by shed + handoff.

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"
	"os/exec"
	"os/signal"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/registry"
)

// procSupplierMain is the re-exec'd child: a standalone supplier daemon
// configured from the environment. SIGTERM drains gracefully and exits
// 0; SIGKILL is the crash case the parent's lease expiry covers.
func procSupplierMain() {
	id := os.Getenv("JBS_CHAOS_ID")
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	d, err := daemon.StartSupplier(daemon.SupplierConfig{
		ID:                id,
		RegistryAddr:      os.Getenv("JBS_CHAOS_REGISTRY"),
		MOFDir:            os.Getenv("JBS_CHAOS_MOFDIR"),
		HeartbeatInterval: 100 * time.Millisecond,
		Log:               log.New(os.Stderr, "["+id+"] ", 0).Printf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "proc-supplier:", err)
		os.Exit(1)
	}
	<-sigs
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "proc-supplier: drain:", err)
		d.Close()
		os.Exit(1)
	}
	if err := d.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "proc-supplier:", err)
		os.Exit(1)
	}
	fmt.Println("proc-supplier: drained, exiting")
	os.Exit(0)
}

// procSupplier is one child supplier process under test control.
type procSupplier struct {
	id  string
	cmd *exec.Cmd
	out bytes.Buffer // read only after wait()

	waitOnce sync.Once
	waitErr  error
}

func (p *procSupplier) wait() error {
	p.waitOnce.Do(func() { p.waitErr = p.cmd.Wait() })
	return p.waitErr
}

func startProcSupplier(t *testing.T, regAddr, id, dir string) *procSupplier {
	t.Helper()
	p := &procSupplier{id: id, cmd: exec.Command(os.Args[0])}
	p.cmd.Env = append(os.Environ(),
		"JBS_CHAOS_PROC=supplier",
		"JBS_CHAOS_ID="+id,
		"JBS_CHAOS_REGISTRY="+regAddr,
		"JBS_CHAOS_MOFDIR="+dir,
	)
	p.cmd.Stdout = &p.out
	p.cmd.Stderr = &p.out
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("start supplier process %s: %v", id, err)
	}
	t.Cleanup(func() {
		p.cmd.Process.Kill()
		p.wait()
	})
	return p
}

func newProcRegistry(t *testing.T) *registry.Server {
	t.Helper()
	reg, err := registry.NewServer(registry.ServerConfig{
		Addr: "127.0.0.1:0",
		// A short lease keeps the kill scenario fast: a SIGKILLed
		// supplier's shards move within ~one TTL.
		LeaseTTL:      500 * time.Millisecond,
		SweepInterval: 50 * time.Millisecond,
		Log:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	return reg
}

// waitMembers polls the registry until want suppliers hold live,
// non-draining registrations.
func waitMembers(t *testing.T, regAddr string, want int) {
	t.Helper()
	c := registry.NewClient(regAddr)
	defer c.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if live, err := liveSuppliers(c); err == nil && live == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("registry never reached %d live suppliers", want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestProcSupplierKillRestartMidShuffle is the acceptance scenario: a
// multi-round shuffle across two real supplier processes, one SIGKILLed
// after the first round and later restarted under the same identity.
// Every segment of every round must arrive byte-identical to the
// on-disk reference (the same MOFs the in-process suite serves), with
// zero surfaced errors — lost fetches fail over via lease expiry and
// ownership reroute, not via the caller.
func TestProcSupplierKillRestartMidShuffle(t *testing.T) {
	const tasks, parts, rounds = 4, 3, 8
	dir := t.TempDir()
	if err := daemon.WriteFixture(dir, tasks, parts, 8192, 1313); err != nil {
		t.Fatal(err)
	}
	reg := newProcRegistry(t)
	supA := startProcSupplier(t, reg.Addr(), "proc-a", dir)
	startProcSupplier(t, reg.Addr(), "proc-b", dir)
	waitMembers(t, reg.Addr(), 2)

	var once sync.Once
	st, err := daemon.RunMergerJob(daemon.MergerJobConfig{
		RegistryAddr: reg.Addr(),
		Tasks:        tasks,
		Parts:        parts,
		Rounds:       rounds,
		VerifyDir:    dir,
		ResolverTTL:  20 * time.Millisecond,
		MaxRetries:   16,
		Progress: func(format string, args ...any) {
			t.Logf(format, args...)
			once.Do(func() {
				// Mid-shuffle crash: no drain, no deregister — the hard
				// case only lease expiry can clean up.
				if err := supA.cmd.Process.Kill(); err != nil {
					t.Errorf("kill proc-a: %v", err)
				}
				t.Log("killed proc-a (SIGKILL)")
			})
		},
	})
	if err != nil {
		t.Fatalf("shuffle across supplier kill: %v\nproc-a output:\n%s", err, supA.out.String())
	}
	if st.Segments != tasks*parts*rounds || st.Errors != 0 {
		t.Fatalf("stats = %+v, want %d segments, 0 errors", st, tasks*parts*rounds)
	}
	supA.wait() // reap the killed child

	// Restart under the same identity (crash recovery): the registry
	// must accept the re-registration and route to the new process.
	startProcSupplier(t, reg.Addr(), "proc-a", dir)
	waitMembers(t, reg.Addr(), 2)
	st2, err := daemon.RunMergerJob(daemon.MergerJobConfig{
		RegistryAddr: reg.Addr(),
		Tasks:        tasks,
		Parts:        parts,
		Rounds:       2,
		VerifyDir:    dir,
		ResolverTTL:  20 * time.Millisecond,
		MaxRetries:   16,
	})
	if err != nil {
		t.Fatalf("shuffle after restart: %v", err)
	}
	if st2.Segments != tasks*parts*2 || st2.Errors != 0 {
		t.Fatalf("post-restart stats = %+v", st2)
	}
}

// TestProcSupplierGracefulDrain sends SIGTERM to a supplier mid-shuffle
// and requires the clean exit contract end to end: the process drains
// (sheds new fetches, finishes in-flight ones, hands shards off) and
// exits 0, and the concurrently running job completes with zero errors.
func TestProcSupplierGracefulDrain(t *testing.T) {
	const tasks, parts, rounds = 4, 3, 6
	dir := t.TempDir()
	if err := daemon.WriteFixture(dir, tasks, parts, 8192, 2424); err != nil {
		t.Fatal(err)
	}
	reg := newProcRegistry(t)
	supA := startProcSupplier(t, reg.Addr(), "proc-a", dir)
	startProcSupplier(t, reg.Addr(), "proc-b", dir)
	waitMembers(t, reg.Addr(), 2)

	var once sync.Once
	st, err := daemon.RunMergerJob(daemon.MergerJobConfig{
		RegistryAddr: reg.Addr(),
		Tasks:        tasks,
		Parts:        parts,
		Rounds:       rounds,
		VerifyDir:    dir,
		ResolverTTL:  20 * time.Millisecond,
		MaxRetries:   16,
		Progress: func(format string, args ...any) {
			t.Logf(format, args...)
			once.Do(func() {
				if err := supA.cmd.Process.Signal(syscall.SIGTERM); err != nil {
					t.Errorf("SIGTERM proc-a: %v", err)
				}
				t.Log("sent SIGTERM to proc-a")
			})
		},
	})
	if err != nil {
		t.Fatalf("shuffle across graceful drain: %v\nproc-a output:\n%s", err, supA.out.String())
	}
	if st.Segments != tasks*parts*rounds || st.Errors != 0 {
		t.Fatalf("stats = %+v, want %d segments, 0 errors", st, tasks*parts*rounds)
	}
	if err := supA.wait(); err != nil {
		t.Fatalf("drained supplier exited non-zero: %v\noutput:\n%s", err, supA.out.String())
	}
	if !bytes.Contains(supA.out.Bytes(), []byte("drained, exiting")) {
		t.Fatalf("no drain confirmation in proc-a output:\n%s", supA.out.String())
	}
}
