// Package leakcheck detects leaked goroutines at the end of a test run —
// the runtime complement to jbsvet's static `goroutines` check. The JBS
// pipeline (MOFSupplier accept/prefetch/xmit loops, NetMerger readers and
// injector) spawns goroutines on every
// connection; a single missed shutdown path stalls `go test`, pins
// memory, and at production scale turns into a slow node. Wiring
// leakcheck.Main into a package's TestMain makes that class of bug a test
// failure.
//
// Usage, in a package's main_test.go:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// Finer-grained use inside a single test:
//
//	snap := leakcheck.Take()
//	... exercise code ...
//	if err := snap.Check(0); err != nil { t.Fatal(err) }
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// DefaultWait is how long Check waits for straggler goroutines to exit
// before declaring them leaked. Teardown paths that close network
// connections need a few scheduler rounds to unwind.
const DefaultWait = 2 * time.Second

// Snapshot records the goroutines alive at a point in time.
type Snapshot struct {
	ids map[string]bool // goroutine ids ("goroutine 42") alive at Take
}

// Take snapshots the currently live goroutines. Goroutines alive now are
// exempt from a later Check, so packages can take one snapshot in
// TestMain and ignore everything the runtime or earlier packages started.
func Take() *Snapshot {
	s := &Snapshot{ids: make(map[string]bool)}
	for _, g := range stacks() {
		s.ids[g.id] = true
	}
	return s
}

// Check reports an error if goroutines started after the snapshot are
// still running. It polls until wait elapses (DefaultWait if wait <= 0),
// giving teardown paths time to unwind; known-benign runtime and testing
// goroutines are ignored.
func (s *Snapshot) Check(wait time.Duration) error {
	if wait <= 0 {
		wait = DefaultWait
	}
	deadline := time.Now().Add(wait)
	delay := time.Millisecond
	for {
		leaked := s.leaked()
		if len(leaked) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			var b strings.Builder
			fmt.Fprintf(&b, "%d leaked goroutine(s) after %v:", len(leaked), wait)
			for _, g := range leaked {
				fmt.Fprintf(&b, "\n\n%s [%s]:\n%s", g.id, g.state, g.stack)
			}
			return fmt.Errorf("leakcheck: %s", b.String())
		}
		time.Sleep(delay)
		if delay < 100*time.Millisecond {
			delay *= 2
		}
	}
}

// leaked returns goroutines that are neither in the snapshot nor benign.
func (s *Snapshot) leaked() []goroutine {
	var out []goroutine
	for _, g := range stacks() {
		if s.ids[g.id] || benign(g) {
			continue
		}
		out = append(out, g)
	}
	return out
}

// benignMarkers appear in stacks the test harness and runtime own; those
// goroutines are not leaks of the code under test.
var benignMarkers = []string{
	"testing.Main(",
	"testing.tRunner(",
	"testing.(*M).",
	"testing.runTests(",
	"testing.runFuzzing(",
	"runtime.goexit0",
	"runtime.gc",
	"runtime.MHeap",
	"runtime/trace.Start",
	"os/signal.signal_recv",
	"os/signal.loop",
	"repro/internal/leakcheck.",
}

func benign(g goroutine) bool {
	for _, m := range benignMarkers {
		if strings.Contains(g.stack, m) {
			return true
		}
	}
	return false
}

// goroutine is one parsed stanza of runtime.Stack output.
type goroutine struct {
	id    string // "goroutine 42"
	state string // "chan receive", "IO wait", ...
	stack string
}

// stacks captures and parses the full goroutine dump.
func stacks() []goroutine {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	var out []goroutine
	for _, stanza := range strings.Split(string(buf), "\n\n") {
		header, rest, _ := strings.Cut(stanza, "\n")
		if !strings.HasPrefix(header, "goroutine ") {
			continue
		}
		id := header
		state := ""
		if i := strings.IndexByte(header, '['); i > 0 {
			id = strings.TrimSpace(header[:i])
			state = strings.Trim(header[i:], "[]:")
		}
		out = append(out, goroutine{id: id, state: state, stack: rest})
	}
	return out
}

// Main runs a package's tests with leak detection: it snapshots before
// m.Run and fails the run if new goroutines survive teardown. Use it as
// the body of TestMain.
func Main(m *testing.M) {
	snap := Take()
	code := m.Run()
	if code == 0 {
		if err := snap.Check(0); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}
