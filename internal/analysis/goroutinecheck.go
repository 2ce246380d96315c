package analysis

import (
	"go/ast"
	"go/types"
)

// GoroutineCheck flags fire-and-forget goroutines in the concurrent core
// packages. A goroutine launched as a function literal must carry a
// shutdown path in its body, which we accept as any of the following:
//
//   - a reference to a context.Context (cancellation),
//   - a sync.WaitGroup Done/Wait call (join),
//   - a channel receive — including range-over-channel and select recv
//     clauses — since a receiver observes close() from a shutdown path.
//
// Only literals are checked. Every `go x.method()` launch in scope is a
// loop joined by its owner's Close, and losing its join hangs that Close
// in every test that closes the owner (DESIGN.md §8.10); a literal's
// join can sit on a path no test takes, such as ExecLauncher's Kill.
type GoroutineCheck struct{}

// Name implements Check.
func (*GoroutineCheck) Name() string { return "goroutines" }

// Run implements Check.
func (c *GoroutineCheck) Run(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := g.Call.Fun.(*ast.FuncLit)
			if ok && !c.hasLifecycleSignal(pkg, lit.Body) {
				out = append(out, Finding{
					Pos:     position(pkg, g.Pos()),
					Check:   "goroutines",
					Message: "fire-and-forget goroutine: no shutdown path (context.Context, done-channel receive, or sync.WaitGroup) reachable from the goroutine body",
				})
			}
			return true
		})
	}
	return out
}

// hasLifecycleSignal scans a goroutine body (including nested literals —
// a join signal anywhere below keeps the tree collectable) for evidence
// it can be stopped or joined.
func (c *GoroutineCheck) hasLifecycleSignal(pkg *Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch e := n.(type) {
		case *ast.Ident:
			if obj := pkg.Info.Uses[e]; obj != nil && isContextType(obj.Type()) {
				found = true
			}
		case *ast.UnaryExpr:
			if e.Op.String() == "<-" {
				found = true
			}
		case *ast.RangeStmt:
			if t := pkg.Info.TypeOf(e.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.CallExpr:
			if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
				if fn, _ := pkg.Info.Uses[sel.Sel].(*types.Func); fn != nil &&
					fn.Pkg() != nil && fn.Pkg().Path() == "sync" &&
					(fn.Name() == "Done" || fn.Name() == "Wait") {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
