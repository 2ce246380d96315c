package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// This file implements the lightweight interprocedural summaries behind
// closeflow: for each function we record what it does with its owned
// parameters — releases them, stores them somewhere that outlives the
// call (escape), or returns them — and whether it (transitively) drains
// a flow ledger. Summaries are existence-based, not path-sensitive:
// "somewhere in the body this parameter is released" is enough for a
// caller to treat the call as an ownership transfer. That is
// deliberately optimistic, and closeflow pays for it at the callee: a
// parameter the summary says is consumed is an obligation from entry in
// the callee's own body, so a function that releases on only some paths
// is flagged at its own definition, not at every call site.

// paramEffect records what a function does with one owned parameter.
type paramEffect uint8

const (
	// effReleased: the parameter's Close, Release or Abort method is
	// called (directly or via a transitively-summarized callee).
	effReleased paramEffect = 1 << iota
	// effEscaped: the parameter is stored into a field, map, slice,
	// channel, or composite literal, or handed to a goroutine, a defer or
	// an escaping closure — somewhere that outlives the call.
	effEscaped
	// effReturned: the parameter is returned to the caller, which then
	// owns it under the docs/PERF.md contract.
	effReturned
)

// consumes reports whether the effect transfers ownership away from the
// caller: any of release, escape, or return discharges the caller's
// obligation.
func (e paramEffect) consumes() bool { return e != 0 }

// funcSummary is one function's interprocedural summary.
type funcSummary struct {
	// recv is the effect on the receiver, params[i] on the i-th
	// parameter. Only owned positions carry effects, and a receiver only
	// through a release method itself or //jbsvet:owns: a method that
	// aborts its receiver on an error path does not consume it.
	recv   paramEffect
	params []paramEffect
	// drainsLedger reports that the function (transitively) calls
	// (*flow.Ledger).Release — closeflow treats helper calls like
	// releaseCharge as a drain.
	drainsLedger bool
}

// effectOn returns the effect for argument index i of a call (not
// counting the receiver).
func (s *funcSummary) effectOn(i int) paramEffect {
	if s == nil || i < 0 || i >= len(s.params) {
		return 0
	}
	return s.params[i]
}

// summarizer memoizes function summaries across every package a Loader
// touches. It is created lazily on first use and shared by all checks
// running under one Loader, so a whole-repo scan summarizes each
// function at most once.
type summarizer struct {
	loader *Loader

	sums       map[*types.Func]*funcSummary
	inProgress map[*types.Func]bool

	// marks records the jbsvet:owns and jbsvet:borrowed markers on
	// functions and interface methods.
	marks      map[*types.Func]string
	annScanned map[*Package]bool
}

// summaries returns the loader's shared summarizer, or a private one for
// a package built without a loader.
func (p *Package) summaries() *summarizer {
	if p.loader != nil && p.loader.sum != nil {
		return p.loader.sum
	}
	s := &summarizer{
		loader:     p.loader,
		sums:       make(map[*types.Func]*funcSummary),
		inProgress: make(map[*types.Func]bool),
		marks:      make(map[*types.Func]string),
		annScanned: make(map[*Package]bool),
	}
	if p.loader != nil {
		p.loader.sum = s
	}
	return s
}

// releaseMethods are the methods that discharge an owned value.
var releaseMethods = [...]string{"Close", "Release", "Abort"}

// isCloser reports whether t is an owned type: a pointer, named or
// interface type with a Close, Release or Abort method taking no
// arguments (*bufpool.Lease, *mof.FileHandle, *dfs.FileWriter,
// transport.Conn, merge.Source, *os.File, io.ReadCloser, ...).
func isCloser(t types.Type) bool {
	switch types.Unalias(t).(type) {
	case *types.Pointer, *types.Named, *types.Interface:
	default:
		return false
	}
	for _, name := range releaseMethods {
		if isReleaseMethod(lookupMethod(t, name)) {
			return true
		}
	}
	return false
}

// lookupMethod returns t's exported method name, or nil.
func lookupMethod(t types.Type, name string) *types.Func {
	if t == nil {
		return nil
	}
	obj, _, _ := types.LookupFieldOrMethod(t, false, nil, name)
	fn, _ := obj.(*types.Func)
	return fn
}

// isReleaseMethod reports whether fn is a zero-argument Close, Release
// or Abort method.
func isReleaseMethod(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil || sig.Params().Len() != 0 {
		return false
	}
	for _, name := range releaseMethods {
		if fn.Name() == name {
			return true
		}
	}
	return false
}

// ownedParam reports whether a parameter of type t can carry an
// obligation: an owned type, or a slice of one (merge.NewIterator's
// sources).
func ownedParam(t types.Type) bool {
	if s, ok := t.Underlying().(*types.Slice); ok {
		t = s.Elem()
	}
	return isCloser(t)
}

// isLedgerType reports whether t is *flow.Ledger. Matching is by
// package-path suffix so golden fixtures loaded from testdata
// directories (whose import path is their absolute directory) still
// resolve the real type.
func isLedgerType(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Ledger" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/flow")
}

// ledgerMethod reports whether fn is (*flow.Ledger).name.
func ledgerMethod(fn *types.Func, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && isLedgerType(recv.Type())
}

// staticCallee resolves the *types.Func a call statically dispatches to,
// or nil for calls through function values, builtins, and conversions.
// Generic instantiations resolve to their origin.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		}
	case *ast.IndexListExpr:
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		}
	}
	if id == nil {
		return nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	return fn.Origin()
}

// summaryFor computes (memoized) the summary of fn. ctx is the package
// whose Info produced fn; its own files are searched for the declaration
// before falling back to the loader's package table. Functions without a
// findable body (interface methods, stdlib, function values) summarize
// as no-effect unless marked //jbsvet:owns.
func (s *summarizer) summaryFor(fn *types.Func, ctx *Package) *funcSummary {
	if fn == nil {
		return nil
	}
	fn = fn.Origin()
	if sum, ok := s.sums[fn]; ok {
		return sum
	}
	if s.inProgress[fn] {
		return nil // recursion: assume no effects on this path
	}

	sig := fn.Type().(*types.Signature)
	switch {
	case isReleaseMethod(fn):
		// The ownership primitives the rest of the analysis is defined in
		// terms of.
		s.sums[fn] = &funcSummary{recv: effReleased}
		return s.sums[fn]
	case ledgerMethod(fn, "Release"):
		s.sums[fn] = &funcSummary{drainsLedger: true}
		return s.sums[fn]
	case s.mark(fn, ctx) == ownsMarker:
		// Every owned parameter (and receiver) escapes into the callee.
		sum := &funcSummary{params: make([]paramEffect, sig.Params().Len())}
		if r := sig.Recv(); r != nil && isCloser(r.Type()) {
			sum.recv = effEscaped
		}
		for i := range sum.params {
			if ownedParam(sig.Params().At(i).Type()) {
				sum.params[i] = effEscaped
			}
		}
		s.sums[fn] = sum
		return sum
	}

	decl, declPkg := s.decl(fn, ctx)
	if decl == nil || decl.Body == nil {
		s.sums[fn] = nil
		return nil
	}

	s.inProgress[fn] = true
	sum := &funcSummary{params: make([]paramEffect, sig.Params().Len())}
	tracked := make(map[types.Object]*paramEffect)
	for i := range sum.params {
		if p := sig.Params().At(i); ownedParam(p.Type()) {
			tracked[p] = &sum.params[i]
		}
	}
	sum.drainsLedger = s.effects(declPkg, decl.Body, tracked)
	delete(s.inProgress, fn)
	s.sums[fn] = sum
	return sum
}

// The two markers scanAnnotations reads from doc comments.
const (
	// ownsMarker: the function or interface method takes ownership of
	// every owned parameter.
	ownsMarker = "jbsvet:owns"
	// borrowedMarker: the function's result is lent, not handed over —
	// the caller must not close it (ConnCache.Get, FileHandle.File).
	borrowedMarker = "jbsvet:borrowed"
)

// mark returns the marker fn carries in its declaring package (function
// doc comment or interface method comment), or "".
func (s *summarizer) mark(fn *types.Func, ctx *Package) string {
	fn = fn.Origin()
	// Scan the context package and the declaring package once each.
	s.scanAnnotations(ctx)
	if m, ok := s.marks[fn]; ok {
		return m
	}
	if p := s.packageFor(fn); p != nil {
		s.scanAnnotations(p)
	}
	return s.marks[fn]
}

// scanAnnotations records every marked function and interface method in
// pkg (memoized per package).
func (s *summarizer) scanAnnotations(pkg *Package) {
	if pkg == nil || s.annScanned[pkg] {
		return
	}
	s.annScanned[pkg] = true
	markOf := func(groups ...*ast.CommentGroup) string {
		for _, g := range groups {
			if g == nil {
				continue
			}
			for _, c := range g.List {
				for _, m := range [...]string{ownsMarker, borrowedMarker} {
					if strings.Contains(c.Text, m) {
						return m
					}
				}
			}
		}
		return ""
	}
	record := func(id *ast.Ident, m string) {
		if fn, ok := pkg.Info.Defs[id].(*types.Func); ok && m != "" {
			s.marks[fn.Origin()] = m
		}
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.FuncDecl:
				record(d.Name, markOf(d.Doc))
				return false // function bodies hold no annotations
			case *ast.InterfaceType:
				for _, field := range d.Methods.List {
					m := markOf(field.Doc, field.Comment)
					for _, name := range field.Names {
						record(name, m)
					}
				}
			}
			return true
		})
	}
}

// packageFor resolves the loaded *Package declaring fn, or nil when it
// lives outside the module (stdlib).
func (s *summarizer) packageFor(fn *types.Func) *Package {
	if fn.Pkg() == nil || s.loader == nil {
		return nil
	}
	path := fn.Pkg().Path()
	l := s.loader
	var dir string
	switch {
	case path == l.Module:
		dir = l.Root
	case strings.HasPrefix(path, l.Module+"/"):
		dir = filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(path, l.Module+"/")))
	case filepath.IsAbs(path): // fixture packages outside the module
		dir = path
	default:
		return nil
	}
	pkg, err := l.Load(dir)
	if err != nil {
		return nil
	}
	return pkg
}

// decl finds fn's declaration. The context package's own files are
// checked first: test units re-parse base files into fresh ASTs, so a
// function object from a test unit's Info only matches positions in
// that unit. The shared FileSet makes Pos comparison valid across every
// package one Loader touches.
func (s *summarizer) decl(fn *types.Func, ctx *Package) (*ast.FuncDecl, *Package) {
	find := func(p *Package) *ast.FuncDecl {
		if p == nil {
			return nil
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Pos() == fn.Pos() {
					return fd
				}
			}
		}
		return nil
	}
	if fd := find(ctx); fd != nil {
		return fd, ctx
	}
	p := s.packageFor(fn)
	if fd := find(p); fd != nil {
		return fd, p
	}
	return nil, nil
}

// effects walks body once, or-ing into tracked what it does with each
// tracked variable, and reports whether it drains a ledger. It computes
// summaries (tracked = the owned parameters) and closeflow's closure
// rule (tracked = the owned values a literal captures). A function
// literal's body counts as part of body; a literal that escapes — run by
// go or defer, returned, or stored — takes every tracked value it
// mentions with it.
func (s *summarizer) effects(pkg *Package, body ast.Node, tracked map[types.Object]*paramEffect) (drainsLedger bool) {
	info := pkg.Info
	// trackedOf resolves an expression to a tracked variable, seeing
	// through parens.
	trackedOf := func(e ast.Expr) *paramEffect {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			return tracked[info.Uses[id]]
		}
		return nil
	}
	// captures marks every tracked variable mentioned under n (an
	// escaping literal's captures) as escaped.
	captures := func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if eff := tracked[info.Uses[id]]; eff != nil {
					*eff |= effEscaped
				}
			}
			return true
		})
	}
	// escapes marks a stored value as escaped: a tracked variable itself,
	// or one inside a composite literal or an escaping literal — not one
	// a field of it was read from (calls account for their own arguments).
	var escapes func(e ast.Expr)
	escapes = func(e ast.Expr) {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if eff := tracked[info.Uses[x]]; eff != nil {
				*eff |= effEscaped
			}
		case *ast.UnaryExpr:
			escapes(x.X)
		case *ast.KeyValueExpr:
			escapes(x.Value)
		case *ast.CompositeLit:
			for _, el := range x.Elts {
				escapes(el)
			}
		case *ast.FuncLit:
			captures(x)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch nd := n.(type) {
		case *ast.CallExpr:
			callee := staticCallee(info, nd)
			if callee == nil {
				if id, ok := ast.Unparen(nd.Fun).(*ast.Ident); ok && id.Name == "append" && len(nd.Args) > 1 {
					// append(s, v): the element is stored into the slice.
					for _, arg := range nd.Args[1:] {
						escapes(arg)
					}
				}
				return true
			}
			csum := s.summaryFor(callee, pkg)
			if csum == nil {
				return true
			}
			drainsLedger = drainsLedger || csum.drainsLedger
			// Receiver effect: v.Release() and friends.
			if sel, ok := ast.Unparen(nd.Fun).(*ast.SelectorExpr); ok {
				if eff := trackedOf(sel.X); eff != nil {
					*eff |= csum.recv
				}
			}
			for i, arg := range nd.Args {
				if eff := trackedOf(arg); eff != nil {
					*eff |= csum.effectOn(i)
				}
			}
		case *ast.ReturnStmt:
			for _, res := range nd.Results {
				if eff := trackedOf(res); eff != nil {
					*eff |= effReturned
				} else if _, ok := ast.Unparen(res).(*ast.FuncLit); ok {
					captures(res)
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range nd.Lhs {
				switch ast.Unparen(lhs).(type) {
				case *ast.SelectorExpr, *ast.IndexExpr:
					// Storing into a field, map, or slice element. Match
					// positionally when possible, else any RHS mention.
					if i < len(nd.Rhs) {
						escapes(nd.Rhs[i])
					} else if len(nd.Rhs) == 1 {
						escapes(nd.Rhs[0])
					}
				}
			}
		case *ast.RangeStmt:
			// What the loop does to each element of a tracked slice it
			// does to the slice (closeAll(sources) releases sources).
			if eff := trackedOf(nd.X); eff != nil {
				if v, ok := nd.Value.(*ast.Ident); ok && info.Defs[v] != nil {
					tracked[info.Defs[v]] = eff
				}
			}
		case *ast.SendStmt:
			escapes(nd.Value)
		case *ast.CompositeLit:
			for _, el := range nd.Elts {
				escapes(el)
			}
		case *ast.GoStmt:
			escapes(nd.Call.Fun)
			for _, arg := range nd.Call.Args {
				escapes(arg)
			}
		case *ast.DeferStmt:
			if _, ok := ast.Unparen(nd.Call.Fun).(*ast.FuncLit); ok {
				captures(nd.Call.Fun)
			}
		}
		return true
	})
	return drainsLedger
}
