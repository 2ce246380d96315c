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
// before H in one function, H before G in another). The self-test
// asserts each is caught — if a refactor of the engine ever goes blind,
// this fails before the repo quietly stops being checked.
const injectedSrc = `package injected

import (
	"sync"

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

// TestStaleIgnoreAudit drives the Runner's AuditSuppressions path over a
// synthetic package carrying one live directive (it suppresses a real
// simclock finding) and one stale directive (its check runs but finds
// nothing on that line). Only the stale one must be reported.
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

import "time"

//jbsvet:ignore simclock fixture wants wall time here
func now() time.Time { return time.Now() }

//jbsvet:ignore simclock nothing to suppress on the next line
func pure(a int) int { return a + 1 }
`
	if err := os.WriteFile(filepath.Join(dir, "stalefix.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	r := &Runner{
		Loader:            loader,
		Checks:            []Check{&SimClockCheck{}},
		AuditSuppressions: true,
	}
	findings, err := r.RunDirs([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("audit findings = %d, want 1 (the stale directive):\n%v", len(findings), findings)
	}
	f := findings[0]
	if f.Check != "staleignore" {
		t.Errorf("finding check = %q, want staleignore", f.Check)
	}
	if !strings.Contains(f.Message, "suppresses nothing") {
		t.Errorf("finding message = %q, want a suppresses-nothing report", f.Message)
	}
	if f.Pos.Line != 9 {
		t.Errorf("stale directive reported at line %d, want 9", f.Pos.Line)
	}

	// Without the audit flag the same scan is silent: the live directive
	// suppresses its finding and the stale one is ignored.
	r2 := &Runner{Loader: loader, Checks: []Check{&SimClockCheck{}}}
	quiet, err := r2.RunDirs([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(quiet) != 0 {
		t.Errorf("non-audit scan = %d findings, want 0:\n%v", len(quiet), quiet)
	}
}
