package bench

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/daemon"
	"repro/internal/registry"
)

// MultiprocConfig sizes the multi-process shuffle scenario: the three
// daemon binaries are built from this checkout, a registry plus two
// supplier processes are spawned for real, and a jbsmergerd job fetches
// a verified fixture grid across a mid-job SIGKILL of one supplier.
type MultiprocConfig struct {
	// Tasks x Parts segments of SegBytes each form the fixture grid
	// every round fetches and byte-verifies.
	Tasks    int
	Parts    int
	SegBytes int
	// Rounds is how many passes the merger job makes over the grid.
	// Multi-round jobs are what give the kill and restart a window.
	Rounds int
	// KillAfterRound SIGKILLs supplier A once that many rounds have
	// completed; RestartAfterRound restarts it under the same identity.
	KillAfterRound    int
	RestartAfterRound int
	// Seed pins the fixture contents.
	Seed uint64
	// LeaseTTL is the registry lease; the SIGKILLed supplier's shards
	// move within about one TTL.
	LeaseTTL time.Duration
	// Timeout bounds the whole scenario (build included).
	Timeout time.Duration
	// Log, when set, receives per-event progress lines.
	Log func(format string, args ...any)
}

// DefaultMultiprocConfig returns the laptop-scale scenario.
func DefaultMultiprocConfig() MultiprocConfig {
	return MultiprocConfig{
		Tasks:             6,
		Parts:             4,
		SegBytes:          32 << 10,
		Rounds:            10,
		KillAfterRound:    1,
		RestartAfterRound: 5,
		Seed:              4242,
		LeaseTTL:          750 * time.Millisecond,
		Timeout:           5 * time.Minute,
	}
}

// ShortMultiprocConfig returns the CI smoke: a small grid, fewer
// rounds, same kill-and-restart schedule.
func ShortMultiprocConfig() MultiprocConfig {
	cfg := DefaultMultiprocConfig()
	cfg.Tasks = 3
	cfg.Parts = 3
	cfg.SegBytes = 8 << 10
	cfg.Rounds = 6
	cfg.RestartAfterRound = 3
	return cfg
}

// mpProc is one spawned daemon with its output captured for the error
// path. Stdout is consumed line by line through lines; stderr is
// appended to the same transcript.
type mpProc struct {
	name  string
	cmd   *exec.Cmd
	lines *bufio.Scanner
	done  chan struct{}
}

func (p *mpProc) kill() {
	if p.cmd.Process != nil {
		p.cmd.Process.Kill()
	}
}

// wait reaps the process. Safe to call more than once via done.
func (p *mpProc) wait() error {
	select {
	case <-p.done:
		return nil
	default:
	}
	close(p.done)
	return p.cmd.Wait()
}

func startProc(logf func(string, ...any), name, bin string, args ...string) (*mpProc, error) {
	p := &mpProc{name: name, cmd: exec.Command(bin, args...), done: make(chan struct{})}
	stdout, err := p.cmd.StdoutPipe() //jbsvet:ignore closeflow the Cmd owns its pipe: Wait closes it, and so does a failed Start
	if err != nil {
		return nil, err
	}
	p.cmd.Stderr = os.Stderr
	p.lines = bufio.NewScanner(stdout)
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	if logf != nil {
		logf("multiproc: started %s (pid %d)", name, p.cmd.Process.Pid)
	}
	return p, nil
}

// expectLine reads stdout lines until one contains want, returning it.
func (p *mpProc) expectLine(want string) (string, error) {
	for p.lines.Scan() {
		if strings.Contains(p.lines.Text(), want) {
			return p.lines.Text(), nil
		}
	}
	return "", fmt.Errorf("%s exited before printing %q", p.name, want)
}

// buildDaemons compiles the named daemon binaries into dir and returns
// their paths keyed by command name.
func buildDaemons(dir string, names ...string) (map[string]string, error) {
	bins := map[string]string{}
	for _, name := range names {
		out := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		if b, err := cmd.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("go build ./cmd/%s: %v\n%s", name, err, b)
		}
		bins[name] = out
	}
	return bins, nil
}

// startRegistry spawns jbsregistryd on an ephemeral port and returns
// the process plus the address parsed from its startup line.
func startRegistry(logf func(string, ...any), bin string, leaseTTL time.Duration) (*mpProc, string, error) {
	reg, err := startProc(logf, "jbsregistryd", bin,
		"-addr", "127.0.0.1:0",
		"-lease-ttl", leaseTTL.String(),
		"-sweep", "50ms",
		"-quiet")
	if err != nil {
		return nil, "", err
	}
	line, err := reg.expectLine("serving")
	if err != nil {
		reg.kill()
		reg.wait()
		return nil, "", err
	}
	addr := ""
	fields := strings.Fields(line) // ... shards at <addr> (lease TTL ...)
	for i, f := range fields {
		if f == "at" && i+1 < len(fields) {
			addr = fields[i+1]
		}
	}
	if addr == "" {
		reg.kill()
		reg.wait()
		return nil, "", fmt.Errorf("no registry address in startup line %q", line)
	}
	return reg, addr, nil
}

// liveSupplierCount returns how many non-draining suppliers hold live
// registrations.
func liveSupplierCount(c *registry.Client) (int, error) {
	m, err := c.FetchMap()
	if err != nil {
		return 0, err
	}
	live := 0
	for _, s := range m.Suppliers {
		if !s.Draining {
			live++
		}
	}
	return live, nil
}

// waitLiveSuppliers polls the registry until want non-draining
// suppliers hold live registrations.
func waitLiveSuppliers(regAddr string, want int, deadline time.Time) error {
	c := registry.NewClient(regAddr)
	defer c.Close()
	for {
		if live, err := liveSupplierCount(c); err == nil && live == want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("registry never reached %d live suppliers", want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Multiproc runs the multi-process shuffle scenario: it builds the real
// jbsregistryd/jbssupplierd/jbsmergerd binaries, spawns a registry and
// two supplier OS processes, runs a byte-verified multi-round merger
// job against them, SIGKILLs one supplier mid-job, restarts it under
// the same identity later in the job, and requires the merger to exit 0
// with every segment verified. It is the process-level acceptance run
// behind `make multiproc-smoke`.
func Multiproc(cfg MultiprocConfig) (*Report, error) {
	start := time.Now()
	deadline := start.Add(cfg.Timeout)
	logf := cfg.Log

	work, err := os.MkdirTemp("", "jbs-multiproc-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	buildStart := time.Now()
	bins, err := buildDaemons(work, "jbsregistryd", "jbssupplierd", "jbsmergerd")
	if err != nil {
		return nil, err
	}
	buildDur := time.Since(buildStart)

	fixture := filepath.Join(work, "mofs")
	if err := os.Mkdir(fixture, 0o755); err != nil {
		return nil, err
	}
	if err := daemon.WriteFixture(fixture, cfg.Tasks, cfg.Parts, cfg.SegBytes, cfg.Seed); err != nil {
		return nil, fmt.Errorf("write fixture: %w", err)
	}

	// Registry first: its ephemeral port comes from its startup line.
	reg, regAddr, err := startRegistry(logf, bins["jbsregistryd"], cfg.LeaseTTL)
	if err != nil {
		return nil, err
	}
	defer func() { reg.kill(); reg.wait() }()
	if logf != nil {
		logf("multiproc: registry at %s", regAddr)
	}

	supplierArgs := func(id string) []string {
		return []string{
			"-registry", regAddr,
			"-addr", "127.0.0.1:0",
			"-id", id,
			"-mof-dir", fixture,
			"-heartbeat", "100ms",
			"-quiet",
		}
	}
	supA, err := startProc(logf, "jbssupplierd/mp-a", bins["jbssupplierd"], supplierArgs("mp-a")...)
	if err != nil {
		return nil, err
	}
	defer func() { supA.kill(); supA.wait() }()
	supB, err := startProc(logf, "jbssupplierd/mp-b", bins["jbssupplierd"], supplierArgs("mp-b")...)
	if err != nil {
		return nil, err
	}
	defer func() { supB.kill(); supB.wait() }()
	if err := waitLiveSuppliers(regAddr, 2, deadline); err != nil {
		return nil, err
	}

	jobStart := time.Now()
	merger, err := startProc(logf, "jbsmergerd", bins["jbsmergerd"],
		"-registry", regAddr,
		"-tasks", fmt.Sprint(cfg.Tasks),
		"-parts", fmt.Sprint(cfg.Parts),
		"-rounds", fmt.Sprint(cfg.Rounds),
		"-verify", fixture,
		"-resolver-ttl", "20ms",
		"-retries", "16")
	if err != nil {
		return nil, err
	}
	defer func() { merger.kill(); merger.wait() }()

	// Drive the job by its own progress lines: SIGKILL supplier A after
	// KillAfterRound rounds, restart it (same identity — crash
	// recovery) after RestartAfterRound rounds.
	var (
		roundsSeen int
		killedAt   = -1
		restartAt  = -1
		doneLine   string
	)
	for merger.lines.Scan() {
		text := merger.lines.Text()
		if logf != nil {
			logf("multiproc: %s", text)
		}
		if strings.Contains(text, "done:") {
			doneLine = text
		}
		if !strings.Contains(text, "round ") || !strings.Contains(text, " ok") {
			continue
		}
		roundsSeen++
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("multiproc scenario exceeded %v", cfg.Timeout)
		}
		if roundsSeen == cfg.KillAfterRound && killedAt < 0 {
			if err := supA.cmd.Process.Signal(syscall.SIGKILL); err != nil {
				return nil, fmt.Errorf("SIGKILL mp-a: %w", err)
			}
			supA.wait()
			killedAt = roundsSeen
			if logf != nil {
				logf("multiproc: SIGKILLed mp-a after round %d", roundsSeen)
			}
		}
		if roundsSeen == cfg.RestartAfterRound && killedAt >= 0 && restartAt < 0 {
			supA, err = startProc(logf, "jbssupplierd/mp-a", bins["jbssupplierd"], supplierArgs("mp-a")...)
			if err != nil {
				return nil, fmt.Errorf("restart mp-a: %w", err)
			}
			restartAt = roundsSeen
		}
	}
	if err := merger.wait(); err != nil {
		return nil, fmt.Errorf("jbsmergerd failed across supplier kill: %w", err)
	}
	jobDur := time.Since(jobStart)
	if killedAt < 0 {
		return nil, fmt.Errorf("job finished before the kill fired (only %d rounds seen)", roundsSeen)
	}
	var segments, bytesFetched, retries, sheds, rerouted int64
	if _, err := fmt.Sscanf(doneLine, "jbsmergerd: done: %d segments, %d bytes, %d retries, %d sheds, %d rerouted",
		&segments, &bytesFetched, &retries, &sheds, &rerouted); err != nil {
		return nil, fmt.Errorf("unparseable merger summary %q: %w", doneLine, err)
	}
	wantSegments := int64(cfg.Tasks * cfg.Parts * cfg.Rounds)
	if segments != wantSegments {
		return nil, fmt.Errorf("merger verified %d segments, want %d", segments, wantSegments)
	}

	// Graceful teardown: every surviving supplier must drain to exit 0.
	// The restarted mp-a must be back in the membership first — that is
	// the crash-recovery half of the assertion.
	survivors := []*mpProc{supB}
	if restartAt >= 0 {
		if err := waitLiveSuppliers(regAddr, 2, deadline); err != nil {
			return nil, fmt.Errorf("restarted mp-a never re-registered: %w", err)
		}
		survivors = append(survivors, supA)
	}
	for _, p := range survivors {
		if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			return nil, fmt.Errorf("SIGTERM %s: %w", p.name, err)
		}
		if err := p.wait(); err != nil {
			return nil, fmt.Errorf("%s did not drain cleanly: %w", p.name, err)
		}
	}
	if err := reg.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return nil, fmt.Errorf("SIGTERM jbsregistryd: %w", err)
	}
	if err := reg.wait(); err != nil {
		return nil, fmt.Errorf("jbsregistryd did not shut down cleanly: %w", err)
	}

	mbps := float64(bytesFetched) / 1e6 / jobDur.Seconds()
	rep := &Report{
		ID:     "multiproc",
		Title:  "multi-process shuffle: registry + 2 supplier daemons, SIGKILL + restart mid-job",
		Header: []string{"phase", "result"},
	}
	rep.AddRow("build daemons", buildDur.Round(time.Millisecond).String())
	rep.AddRow("fixture", fmt.Sprintf("%dx%d segments x %d B (seed %d)", cfg.Tasks, cfg.Parts, cfg.SegBytes, cfg.Seed))
	rep.AddRow("job", fmt.Sprintf("%d rounds, %d segments verified, %d bytes", cfg.Rounds, segments, bytesFetched))
	rep.AddRow("supplier kill", fmt.Sprintf("SIGKILL mp-a after round %d", killedAt))
	if restartAt >= 0 {
		rep.AddRow("supplier restart", fmt.Sprintf("same identity after round %d", restartAt))
	}
	rep.AddRow("recovery cost", fmt.Sprintf("%d retries, %d sheds, %d rerouted", retries, sheds, rerouted))
	rep.AddRow("job wall time", jobDur.Round(time.Millisecond).String())
	rep.AddNote("sustained %.1f MB/s across the kill; every segment byte-verified, all daemons exited 0", mbps)
	return rep, nil
}
