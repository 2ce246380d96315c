package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLeaseFlowGolden runs closeflow over the lease fixture: the two
// lease types and how each must be released.
func TestLeaseFlowGolden(t *testing.T) {
	pkg := fixturePkg(t, "closeflow/lease")
	matchFindings(t, pkg, (&CloseFlowCheck{}).Run(pkg))
}

// TestLedgerBalanceGolden runs closeflow over the ledger fixture: every
// charge must be matched by a release on every path.
func TestLedgerBalanceGolden(t *testing.T) {
	pkg := fixturePkg(t, "closeflow/ledger")
	matchFindings(t, pkg, (&CloseFlowCheck{}).Run(pkg))
}

// TestCloseFlowGolden runs closeflow over the three leaks found by hand,
// with the rules they needed.
func TestCloseFlowGolden(t *testing.T) {
	pkg := fixturePkg(t, "closeflow/history")
	matchFindings(t, pkg, (&CloseFlowCheck{}).Run(pkg))
}

func TestLockOrderGolden(t *testing.T) {
	pkg := fixturePkg(t, "lockorder")
	matchFindings(t, pkg, (&LockOrderCheck{}).RunProgram([]*Package{pkg}))
}

// runFlowChecks runs the three checks on the CFG over one package.
func runFlowChecks(pkg *Package) []Finding {
	var fs []Finding
	fs = append(fs, (&CloseFlowCheck{}).Run(pkg)...)
	fs = append(fs, (&LockCheck{}).Run(pkg)...)
	fs = append(fs, (&LockOrderCheck{}).RunProgram([]*Package{pkg})...)
	return fs
}

// TestGenericsClean covers the CFG and summarizer on generics and method
// values: the fixture must load, type-check, and analyze without findings
// (and, implicitly, without panics).
func TestGenericsClean(t *testing.T) {
	pkg := fixturePkg(t, "generics")
	for _, f := range runFlowChecks(pkg) {
		t.Errorf("generics fixture not clean: %s", f)
	}
}

// TestGenericsLoadTests runs the same checks over both test units of the
// generics fixture — the merged in-package unit re-parses the base files,
// so declaration lookup must survive duplicate parse trees, and the
// external unit declares its own generic.
func TestGenericsLoadTests(t *testing.T) {
	loaderOnce.Do(func() {
		loader, loaderErr = NewLoader(".")
	})
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	pkgs, err := loader.LoadTests(filepath.Join("testdata", "generics"))
	if err != nil {
		t.Fatalf("LoadTests: %v", err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("LoadTests returned %d units, want 2 (in-package merged + external _test)", len(pkgs))
	}
	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			t.Fatalf("test unit %s has type errors: %v", pkg.Name, pkg.TypeErrors)
		}
		for _, f := range runFlowChecks(pkg) {
			t.Errorf("generics test unit %s not clean: %s", pkg.Name, f)
		}
	}
}

// injectedSrc carries one seeded bug per client of the CFG engine: a
// lease leak and a FileWriter leak on an early-error return, an
// undrained Admit, a return while locked, and a lock-order inversion (G
// before H in one function, H before G in another). It also carries the
// one-line mutation that keeps each syntactic pass (DESIGN.md §8.10):
// autoscale's launcher goroutine without its Done, tcpConn.Close's error
// dropped, a test rig's reader calling Fatalf, and a package doc
// comment gone. The self-test asserts each is caught — if a refactor of
// a check ever goes blind, this fails before the repo quietly stops
// being checked.
const injectedSrc = `package injected

import (
	"net"
	"sync"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/dfs"
	"repro/internal/flow"
)

type G struct{ mu sync.Mutex }
type H struct{ mu sync.Mutex }

func leakyRecv(p *bufpool.Pool, read func([]byte) error) (*bufpool.Lease, error) {
	l := p.Get(64)
	if err := read(l.Bytes()); err != nil {
		return nil, err
	}
	return l, nil
}

func leakyWrite(c *dfs.Cluster, data []byte) error {
	w, err := c.Create("out", "n0")
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return err
	}
	return w.Close()
}

func undrained(l *flow.Ledger, n int64, send func() error) error {
	if l.Admit(n) == flow.Shed {
		return nil
	}
	return send()
}

func lockedReturn(g *G, ok bool) int {
	g.mu.Lock()
	if !ok {
		return 0
	}
	g.mu.Unlock()
	return 1
}

func ghPath(g *G, h *H) {
	g.mu.Lock()
	h.mu.Lock()
	h.mu.Unlock()
	g.mu.Unlock()
}

func hgPath(g *G, h *H) {
	h.mu.Lock()
	g.mu.Lock()
	g.mu.Unlock()
	h.mu.Unlock()
}

type instance struct {
	wg      sync.WaitGroup
	done    chan struct{}
	waitErr error
}

func launch(inst *instance, wait func() error) {
	inst.wg.Add(1)
	go func() {
		inst.waitErr = wait()
		close(inst.done)
	}()
}

type tcpConn struct {
	closeOnce sync.Once
	nc        net.Conn
	closeErr  error
}

func (c *tcpConn) Close() error {
	c.closeOnce.Do(func() { c.nc.Close() })
	return c.closeErr
}

type rig struct{ t *testing.T }

func (r *rig) read() { r.t.Fatalf("bad frame from the supplier") }

func (r *rig) dial() { go r.read() }
`

func TestSeededInjectionIsCaught(t *testing.T) {
	loaderOnce.Do(func() {
		loader, loaderErr = NewLoader(".")
	})
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "injected.go"), []byte(injectedSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.Load(dir)
	if err != nil {
		t.Fatalf("load injected package: %v", err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("injected package has type errors: %v", pkg.TypeErrors)
	}

	for _, c := range []struct {
		check Check
		want  []string // one finding each, in position order
	}{
		{&CloseFlowCheck{}, []string{
			"*bufpool.Lease from Get may not be released or ownership-transferred on every path (in leakyRecv)",
			"*dfs.FileWriter from Create may not be released or ownership-transferred on every path (in leakyWrite)",
			"ledger charge from Admit may not be drained (Release, drained helper, or charge-field store) on every path (in undrained)",
		}},
		{&LockCheck{}, []string{"return while g.mu is locked in lockedReturn"}},
		{&LockOrderCheck{}, []string{"lock-order cycle among {G.mu, H.mu}"}},
		{&GoroutineCheck{}, []string{"fire-and-forget goroutine"}},
		{&ErrCheck{}, []string{"result of c.nc.Close() is ignored"}},
		{&TestGoroutineCheck{}, []string{"testing.Fatalf called from a goroutine"}},
		{&DocCommentCheck{}, []string{"package injected has no package doc comment"}},
	} {
		var got []Finding
		if pc, ok := c.check.(ProgramCheck); ok {
			got = pc.RunProgram([]*Package{pkg})
		} else {
			got = c.check.Run(pkg)
		}
		SortFindings(got)
		if len(got) != len(c.want) {
			t.Errorf("%s on the injected bugs = %d findings, want %d:\n%v", c.check.Name(), len(got), len(c.want), got)
			continue
		}
		for i, f := range got {
			if !strings.Contains(f.Message, c.want[i]) {
				t.Errorf("%s finding %d = %q, want %q", c.check.Name(), i, f.Message, c.want[i])
			}
		}
	}
}

// TestStaleIgnoreAudit drives the Runner's stale-directive audit over a
// synthetic package carrying one live directive (it suppresses a real
// errcheck finding), one stale directive (its check runs but finds
// nothing on that line) and one whose check does not exist. Only the
// live one may go unreported.
func TestStaleIgnoreAudit(t *testing.T) {
	loaderOnce.Do(func() {
		loader, loaderErr = NewLoader(".")
	})
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	dir := t.TempDir()
	src := `// Package stalefix exercises the stale-ignore audit.
package stalefix

type conn struct{}

func (conn) Close() error { return nil }

func drop(c conn) {
	//jbsvet:ignore errcheck fixture drops this close on purpose
	c.Close()
}

//jbsvet:ignore errcheck nothing to suppress on the next line
func pure(a int) int { return a + 1 }

//jbsvet:ignore simclock a check that no longer exists
func alsoPure(a int) int { return a - 1 }
`
	if err := os.WriteFile(filepath.Join(dir, "stalefix.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	r := &Runner{Loader: loader, Checks: []Check{&ErrCheck{}}}
	findings, err := r.RunDirs([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 2 {
		t.Fatalf("audit findings = %d, want 2 (the stale directives):\n%v", len(findings), findings)
	}
	for i, line := range []int{13, 16} {
		f := findings[i]
		if f.Check != "staleignore" {
			t.Errorf("finding %d check = %q, want staleignore", i, f.Check)
		}
		if !strings.Contains(f.Message, "suppresses nothing") {
			t.Errorf("finding %d message = %q, want a suppresses-nothing report", i, f.Message)
		}
		if f.Pos.Line != line {
			t.Errorf("stale directive %d reported at line %d, want %d", i, f.Pos.Line, line)
		}
	}
}
