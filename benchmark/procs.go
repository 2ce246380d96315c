package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDaemons compiles the named commands of this checkout into binDir.
// With a warm build cache this is a staleness check and costs well under a
// second; it is reported as build_s and kept out of setup_s.
func buildDaemons(root, binDir string, names ...string) error {
	args := []string{"build", "-o", binDir + string(filepath.Separator)}
	for _, n := range names {
		args = append(args, "./cmd/"+n)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return nil
}

// proc is one daemon started by the benchmark, in a process group of its
// own so that kill reaches anything it may have spawned.
type proc struct {
	name  string
	cmd   *exec.Cmd
	lines chan string // stdout, line by line; closed at EOF
}

func startProc(name, bin string, args ...string) (*proc, error) {
	p := &proc{name: name, cmd: exec.Command(bin, args...), lines: make(chan string, 16)}
	// Pdeathsig covers the one path kill cannot: the benchmark itself being
	// killed. Its daemons then die with it.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	p.cmd.Stderr = os.Stderr
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	// The reader ends at EOF, which the daemon's exit produces; stop and
	// kill both wait for that before reaping.
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			p.lines <- sc.Text()
		}
		close(p.lines)
	}()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// expect reads stdout until a line contains want and returns that line.
func (p *proc) expect(want string, timeout time.Duration) (string, error) {
	deadline := time.After(timeout)
	for {
		select {
		case line, ok := <-p.lines:
			if !ok {
				return "", fmt.Errorf("%s exited before printing %q", p.name, want)
			}
			if strings.Contains(line, want) {
				return line, nil
			}
		case <-deadline:
			return "", fmt.Errorf("%s did not print %q within %v", p.name, want, timeout)
		}
	}
}

// reap drains stdout to EOF and waits for the process.
func (p *proc) reap() error {
	for range p.lines {
	}
	return p.cmd.Wait()
}

// stop asks the daemon to drain with SIGTERM and requires exit status 0;
// a daemon that outlives the timeout is killed.
func (p *proc) stop(timeout time.Duration) error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.kill()
		return fmt.Errorf("SIGTERM %s: %w", p.name, err)
	}
	done := make(chan error, 1)
	go func() { done <- p.reap() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("%s did not drain cleanly: %w", p.name, err)
		}
		return nil
	case <-time.After(timeout):
		_ = syscall.Kill(-p.pid(), syscall.SIGKILL) // the group may already be gone
		<-done
		return fmt.Errorf("%s ignored SIGTERM for %v and was killed", p.name, timeout)
	}
}

// kill ends the daemon's whole process group at once and reaps it. It is
// the error and timeout path; the exit status is of no interest there.
func (p *proc) kill() {
	_ = syscall.Kill(-p.pid(), syscall.SIGKILL) // the group may already be gone
	_ = p.reap()
}

// clockTick is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// Linux fixes it at 100 for every architecture Go runs on.
const clockTick = 100

// cpuSeconds returns the user plus system CPU time a process has used.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesised and may hold spaces;
	// fields 14 and 15 are counted from after its closing parenthesis.
	i := bytes.LastIndexByte(b, ')')
	fields := strings.Fields(string(b[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	return float64(utime+stime) / clockTick, nil
}

// rssMB returns a process's current resident set, from the second field
// of /proc/<pid>/statm (pages).
func rssMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", pid))
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return 0, fmt.Errorf("/proc/%d/statm: unexpected format", pid)
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/%d/statm: %w", pid, err)
	}
	return float64(pages) * float64(os.Getpagesize()) / 1e6, nil
}

// peakRSSMB returns a process's resident-set high-water mark (VmHWM).
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: %w", pid, err)
			}
			return float64(kb) * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM line", pid)
}
