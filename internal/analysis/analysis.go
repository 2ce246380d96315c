// Package analysis implements jbsvet, the repo-specific static-analysis
// pass (see docs/STATIC_ANALYSIS.md). JBS's value proposition is a
// lock-tight concurrent data path — MOFSupplier's pipelined DataCache,
// NetMerger's per-node request groups, the LRU connection cache — and the
// checks here enforce the invariants that keep that path correct. Each
// syntactic pass keeps only what go vet, go test -race and leakcheck do
// not catch (DESIGN.md §8.10):
//
//   - lockhygiene: every Lock has a matching Unlock, no return while a
//     mutex is held without a deferred unlock, and no blocking operation
//     (channel send/recv, select, net I/O, time.Sleep, WaitGroup.Wait)
//     while a state mutex is held.
//   - goroutines: every goroutine launched as a function literal in the
//     concurrent packages (core, transport, mapred, registry, daemon,
//     autoscale) must carry a shutdown path (a context.Context, a
//     channel receive, or a sync.WaitGroup Done/Wait).
//   - errcheck: the error of a Close call must be checked or explicitly
//     discarded with `_ =` in transport, mof, mapred and autoscale.
//   - doccomment: every package carries a godoc-convention package doc
//     comment ("Package <name>" / "Command <name>") — the entry points
//     the documentation pass (docs/ARCHITECTURE.md) builds on.
//   - testgoroutine: a method launched with `go x.m()` from test code
//     must not call testing.T/B Fatal/Fatalf/FailNow/Skip/Skipf/SkipNow
//     — they stop only the calling goroutine. go vet covers function
//     literals and T-typed parameters, not a T reached through the
//     receiver. The one check that runs over _test.go files.
//
// lockhygiene and two more checks run over per-function control-flow
// graphs (internal/analysis/cfg, whose Forward is the one dataflow
// solver), closeflow with lightweight interprocedural summaries
// (summary.go):
//
//   - closeflow: every value with a Close, Release or Abort method that a
//     call returns, every parameter a function consumes on some path, and
//     every flow-ledger Admit charge must be released, drained or
//     ownership-transferred on every path, early-error returns included.
//   - lockorder: the repo-wide mutex acquisition graph must be acyclic
//     (whole-program; see ProgramCheck).
//
// The package uses only the standard library (go/ast, go/parser,
// go/types); go.mod stays dependency-free.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
	"time"
)

// A Finding is one rule violation at a source position.
type Finding struct {
	Pos     token.Position
	Check   string
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Check, f.Message)
}

// A Check inspects one type-checked package and reports violations. Run
// must not filter suppressions; the Runner applies //jbsvet:ignore
// directives so golden tests can observe raw findings.
type Check interface {
	// Name is the identifier used in findings and suppression comments.
	Name() string
	// Run reports every violation in pkg.
	Run(pkg *Package) []Finding
}

// AllChecks returns every jbsvet check in stable order.
func AllChecks() []Check {
	return []Check{
		&LockCheck{},
		&GoroutineCheck{},
		&ErrCheck{},
		&DocCommentCheck{},
		&TestGoroutineCheck{},
		&CloseFlowCheck{},
		&LockOrderCheck{},
	}
}

// ProgramCheck is implemented by checks that need the whole program at
// once rather than one package at a time (lockorder's acquisition graph
// spans packages). The Runner calls RunProgram once, after the
// per-package pass, with every loaded package the check is in scope for.
type ProgramCheck interface {
	Check
	RunProgram(pkgs []*Package) []Finding
}

// TestFileCheck is implemented by checks that analyze _test.go files.
// For these the Runner loads each directory's test units — the package
// merged with its in-package tests, and the external _test package —
// via Loader.LoadTests and runs the check over those as well.
type TestFileCheck interface {
	Check
	WantsTestFiles() bool
}

// DefaultScopes maps a check name to the module-relative directory
// prefixes it applies to. A missing entry (or nil slice) means the check
// runs on every scanned package.
func DefaultScopes() map[string][]string {
	return map[string][]string{
		"goroutines": {"internal/core", "internal/transport", "internal/mapred",
			"internal/registry", "internal/daemon", "internal/autoscale"},
		"errcheck": {"internal/transport", "internal/mof", "internal/mapred",
			"internal/autoscale"},
		// testgoroutine runs everywhere tests run; the explicit entry is
		// documentation that the breadth is deliberate.
		"testgoroutine": {"internal", "cmd"},
		// closeflow is unscoped (it runs everywhere): every package opens
		// files, listeners or connections, and breadth catches new call
		// sites automatically. lockorder is bounded to the concurrent core — the packages whose
		// mutexes can nest across call chains.
		"lockorder": {"internal/core", "internal/flow", "internal/transport",
			"internal/mof", "internal/bufpool"},
	}
}

// inScope reports whether a package at module-relative path rel matches
// one of the scope patterns.
func inScope(rel string, patterns []string) bool {
	if len(patterns) == 0 {
		return true
	}
	for _, p := range patterns {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}

// Runner loads packages and applies the configured checks.
type Runner struct {
	Loader *Loader
	Checks []Check
	// Scopes maps check name -> directory prefixes (see DefaultScopes).
	Scopes map[string][]string
	// Timings, after RunDirs returns, holds cumulative wall time per
	// check name (plus "load" for parsing and type-checking).
	Timings map[string]time.Duration
}

// timed accumulates the duration of f under name in r.Timings.
func (r *Runner) timed(name string, f func()) {
	start := time.Now()
	f()
	if r.Timings == nil {
		r.Timings = make(map[string]time.Duration)
	}
	r.Timings[name] += time.Since(start)
}

// RunDirs checks every package directory in dirs and returns the surviving
// findings sorted by position. Suppressed findings are dropped; malformed
// suppression directives, and directives that silenced nothing during the
// scan, are themselves reported as findings. Checks implementing
// ProgramCheck run once at the end over every package they are in scope
// for.
func (r *Runner) RunDirs(dirs []string) ([]Finding, error) {
	var all []Finding
	table := newSuppressionTable()
	progPkgs := make(map[string][]*Package)
	var progChecks []ProgramCheck
	for _, c := range r.Checks {
		if pc, ok := c.(ProgramCheck); ok {
			progChecks = append(progChecks, pc)
		}
	}

	for _, dir := range dirs {
		var pkg *Package
		var err error
		r.timed("load", func() { pkg, err = r.Loader.Load(dir) })
		if err != nil {
			return nil, fmt.Errorf("analysis: load %s: %w", dir, err)
		}
		if len(pkg.TypeErrors) > 0 {
			return nil, fmt.Errorf("analysis: type-check %s: %v (and %d more)",
				dir, pkg.TypeErrors[0], len(pkg.TypeErrors)-1)
		}
		var raw []Finding
		var testChecks []Check
		for _, c := range r.Checks {
			if !inScope(pkg.Rel, r.Scopes[c.Name()]) {
				continue
			}
			if pc, ok := c.(ProgramCheck); ok {
				progPkgs[pc.Name()] = append(progPkgs[pc.Name()], pkg)
				continue
			}
			r.timed(c.Name(), func() { raw = append(raw, c.Run(pkg)...) })
			if tc, ok := c.(TestFileCheck); ok && tc.WantsTestFiles() {
				testChecks = append(testChecks, c)
			}
		}
		table.collect(pkg)
		all = append(all, table.filter(raw)...)
		if len(testChecks) == 0 {
			continue
		}
		var testPkgs []*Package
		r.timed("load", func() { testPkgs, err = r.Loader.LoadTests(dir) })
		if err != nil {
			return nil, fmt.Errorf("analysis: load tests %s: %w", dir, err)
		}
		for _, tp := range testPkgs {
			if len(tp.TypeErrors) > 0 {
				return nil, fmt.Errorf("analysis: type-check %s tests: %v (and %d more)",
					dir, tp.TypeErrors[0], len(tp.TypeErrors)-1)
			}
			var raw []Finding
			for _, c := range testChecks {
				r.timed(c.Name(), func() { raw = append(raw, c.Run(tp)...) })
			}
			table.collect(tp)
			all = append(all, table.filter(raw)...)
		}
	}

	for _, pc := range progChecks {
		pkgs := progPkgs[pc.Name()]
		if len(pkgs) == 0 {
			continue
		}
		var raw []Finding
		r.timed(pc.Name(), func() { raw = pc.RunProgram(pkgs) })
		all = append(all, table.filter(raw)...)
	}

	all = append(all, table.malformed...)
	all = append(all, table.stale()...)
	SortFindings(all)
	return all, nil
}

// SortFindings orders findings by file, line, column, then check name.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
}
