package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// TestGoroutineCheck flags testing.T/B/TB failure methods called from
// goroutines spawned inside test code. The testing package documents
// that FailNow, Fatal, Fatalf, SkipNow, Skip, and Skipf must be called
// from the goroutine running the Test function: they stop that
// goroutine with runtime.Goexit, so from any other goroutine the test
// keeps running as if nothing happened — the failure is recorded but
// teardown ordering, leak snapshots, and the test's own control flow
// are all silently corrupted. The fix is to report through a channel
// (or t.Error, which is goroutine-safe) and let the test goroutine
// decide.
//
// Only `go x.method()` launches are checked: the method resolves to its
// declaration in the same unit and its body is scanned. go vet's
// testinggoroutine covers function literals and functions handed the T
// as an argument, but not a method that reaches the T through its
// receiver (`r.t.Fatal` in a rig's reader); DESIGN.md §8.10 has the
// measurement.
//
// This is the one check that wants test files: the Runner feeds it the
// package merged with its in-package _test.go files plus the external
// _test package (Loader.LoadTests).
type TestGoroutineCheck struct{}

// Name implements Check.
func (*TestGoroutineCheck) Name() string { return "testgoroutine" }

// WantsTestFiles opts this check into the Runner's test-package pass.
func (*TestGoroutineCheck) WantsTestFiles() bool { return true }

// forbiddenFromGoroutine is the set the testing package documents as
// test-goroutine-only. Error/Errorf/Log/Fail are goroutine-safe and
// deliberately absent.
var forbiddenFromGoroutine = map[string]bool{
	"FailNow": true,
	"Fatal":   true,
	"Fatalf":  true,
	"SkipNow": true,
	"Skip":    true,
	"Skipf":   true,
}

// Run implements Check.
func (c *TestGoroutineCheck) Run(pkg *Package) []Finding {
	methods := make(map[types.Object]*ast.FuncDecl)
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				if obj := pkg.Info.Defs[fd.Name]; obj != nil {
					methods[obj] = fd
				}
			}
		}
	}

	var out []Finding
	seen := make(map[*ast.FuncDecl]bool) // two `go x.run()` sites share one body
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			sel, ok := g.Call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if fd := methods[pkg.Info.Uses[sel.Sel]]; fd != nil && !seen[fd] {
				seen[fd] = true
				out = append(out, c.scanBody(pkg, fd.Body)...)
			}
			return true
		})
	}
	return out
}

// scanBody reports every forbidden testing call under a launched method's
// body, nested function literals included (they run on the same spawned
// goroutine unless re-launched, and a re-launch is just as broken).
func (c *TestGoroutineCheck) scanBody(pkg *Package, body *ast.BlockStmt) []Finding {
	var out []Finding
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, _ := pkg.Info.Uses[sel.Sel].(*types.Func)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "testing" ||
			!forbiddenFromGoroutine[fn.Name()] {
			return true
		}
		out = append(out, Finding{
			Pos:   position(pkg, call.Pos()),
			Check: "testgoroutine",
			Message: fmt.Sprintf(
				"testing.%s called from a goroutine spawned by the test: it stops only that goroutine (runtime.Goexit), not the test — send the failure over a channel or use Error/Errorf",
				fn.Name()),
		})
		return true
	})
	return out
}
