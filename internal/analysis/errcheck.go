package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// ErrCheck flags discarded error results from Close calls in the
// data-integrity packages (transport, mof, mapred, autoscale): a
// swallowed Close on a connection hides peer teardown races, and one on
// a spill or index file hides a write that never reached the disk.
//
// A call statement to a Close that returns an error must either consume
// the result (assignment, if-statement, return) or discard it explicitly
// with `_ = x.Close()`. Deferred calls are not flagged: the repo idiom
// reserves `defer x.Close()` for read-side resources whose close error
// is meaningless, while write paths close explicitly and check.
type ErrCheck struct{}

// Name implements Check.
func (*ErrCheck) Name() string { return "errcheck" }

// Run implements Check.
func (c *ErrCheck) Run(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, _ := pkg.Info.Uses[sel.Sel].(*types.Func)
			if fn == nil || fn.Name() != "Close" || !returnsError(fn) {
				return true
			}
			out = append(out, Finding{
				Pos:   position(pkg, call.Pos()),
				Check: "errcheck",
				Message: fmt.Sprintf("result of %s.Close() is ignored; check it or discard explicitly with `_ = %s.Close()`",
					types.ExprString(sel.X), types.ExprString(sel.X)),
			})
			return true
		})
	}
	return out
}

// returnsError reports whether fn's results include an error.
func returnsError(fn *types.Func) bool {
	res := fn.Type().(*types.Signature).Results()
	for i := 0; i < res.Len(); i++ {
		if named, ok := res.At(i).Type().(*types.Named); ok {
			if named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
				return true
			}
		}
	}
	return false
}
