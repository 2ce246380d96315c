package autoscale

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"

	"repro/internal/daemon"
)

// Instance is one supplier the autoscaler launched and may later
// retire.
type Instance interface {
	// ID is the registry identity the instance was launched under.
	ID() string
	// Retire shuts the instance down gracefully (drain -> handoff ->
	// exit) and returns once it is gone; ctx bounds the wait. An error
	// means the instance did not exit cleanly.
	Retire(ctx context.Context) error
	// Kill tears the instance down immediately (the crash-adjacent
	// path; the merger's retry machinery absorbs the loss).
	Kill() error
}

// Launcher starts supplier instances. Implementations are
// deployment-shaped: ExecLauncher spawns local jbssupplierd processes,
// InProcessLauncher embeds daemons in the calling process (tests,
// chaos), and a future remote launcher can place instances on other
// machines behind the same interface.
type Launcher interface {
	Launch(id string) (Instance, error)
}

// ExecLauncher launches local jbssupplierd processes. Retire sends
// SIGTERM and waits — the daemon's own signal handler runs the
// drain/handoff sequence, so a retire and an operator rolling the
// process by hand are the same code path.
type ExecLauncher struct {
	// Binary is the jbssupplierd executable path.
	Binary string
	// RegistryAddr and MOFDir configure every launched supplier.
	RegistryAddr, MOFDir string
	// AdmitBytes is the launched suppliers' admission budget. It must be
	// positive: a supplier without flow control never sheds, and the
	// shed rate is what the policy scales on.
	AdmitBytes int64
	// Heartbeat paces the launched supplier's lease renewal (0: the
	// daemon default).
	Heartbeat time.Duration
	// Log, when set, receives one line per process event.
	Log func(format string, args ...any)
}

// Launch implements Launcher.
func (l *ExecLauncher) Launch(id string) (Instance, error) {
	if l.Binary == "" {
		return nil, errors.New("autoscale: ExecLauncher needs a binary path")
	}
	if l.AdmitBytes <= 0 {
		return nil, fmt.Errorf("autoscale: ExecLauncher AdmitBytes %d must be positive", l.AdmitBytes)
	}
	args := []string{
		"-registry", l.RegistryAddr,
		"-addr", "127.0.0.1:0",
		"-id", id,
		"-mof-dir", l.MOFDir,
		// Ephemeral debug listener, advertised through the registry:
		// this is what the collector polls for flow signals.
		"-debug", "127.0.0.1:0",
		"-admit-bytes", fmt.Sprint(l.AdmitBytes),
		"-quiet",
	}
	if l.Heartbeat > 0 {
		args = append(args, "-heartbeat", l.Heartbeat.String())
	}
	cmd := exec.Command(l.Binary, args...)
	cmd.Stdout = os.Stderr // lifecycle lines; the parent's stdout stays structured
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("autoscale: launch %s: %w", id, err)
	}
	inst := &execInstance{id: id, cmd: cmd, done: make(chan struct{})}
	inst.wg.Add(1)
	go func() {
		defer inst.wg.Done()
		inst.waitErr = cmd.Wait()
		close(inst.done)
	}()
	if l.Log != nil {
		l.Log("autoscale: launched %s (pid %d)", id, cmd.Process.Pid)
	}
	return inst, nil
}

// execInstance is one spawned jbssupplierd process.
type execInstance struct {
	id      string
	cmd     *exec.Cmd
	done    chan struct{}
	waitErr error
	wg      sync.WaitGroup
}

// ID implements Instance.
func (p *execInstance) ID() string { return p.id }

// Retire implements Instance: SIGTERM, then wait for the daemon's
// drain/handoff to finish and the process to exit 0.
func (p *execInstance) Retire(ctx context.Context) error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("autoscale: SIGTERM %s: %w", p.id, err)
	}
	select {
	case <-p.done:
	case <-ctx.Done():
		_ = p.Kill()
		return fmt.Errorf("autoscale: retire %s: drain did not finish: %w", p.id, ctx.Err())
	}
	if p.waitErr != nil {
		return fmt.Errorf("autoscale: retire %s: daemon exited uncleanly: %w", p.id, p.waitErr)
	}
	return nil
}

// Kill implements Instance.
func (p *execInstance) Kill() error {
	err := p.cmd.Process.Kill()
	p.wg.Wait()
	if err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	return nil
}

// InProcessLauncher runs supplier daemons inside the calling process
// via daemon.StartSupplier — the seam the unit and chaos tests scale
// through (no binaries to build, leakcheck sees every goroutine).
type InProcessLauncher struct {
	// Template is copied for every launch; ID is overwritten with the
	// launch id.
	Template daemon.SupplierConfig
}

// Launch implements Launcher.
func (l *InProcessLauncher) Launch(id string) (Instance, error) {
	cfg := l.Template
	cfg.ID = id
	d, err := daemon.StartSupplier(cfg)
	if err != nil {
		return nil, err
	}
	return &inprocInstance{d: d}, nil
}

// inprocInstance is one in-process supplier daemon.
type inprocInstance struct{ d *daemon.Supplier }

// ID implements Instance.
func (p *inprocInstance) ID() string { return p.d.ID() }

// Retire implements Instance: the same drain -> close sequence the
// SIGTERM handler runs in a real daemon process.
func (p *inprocInstance) Retire(ctx context.Context) error {
	if err := p.d.Drain(ctx); err != nil {
		_ = p.d.Close()
		return err
	}
	return p.d.Close()
}

// Kill implements Instance.
func (p *inprocInstance) Kill() error { return p.d.Close() }
