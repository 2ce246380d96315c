package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/cfg"
)

// CloseFlowCheck verifies ownership statically (docs/PERF.md): on every
// control-flow path to return, a function discharges what it owns.
//
// A function owns a value a call returns when the value's type has a
// Close, Release or Abort method (isCloser), unless the callee is marked
// //jbsvet:borrowed; a parameter its own summary says it consumes on some
// path; a composite literal of an owned type that a live obligation was
// stored into; and the charge an admitted (*flow.Ledger).Admit takes.
//
// A value is discharged by releasing it, or by transferring it: returned,
// stored, sent, appended, handed to a goroutine, passed to a callee whose
// summary consumes it, or captured by a function literal that escapes (go,
// defer, return, store) or itself discharges it. A charge is discharged
// by (*flow.Ledger).Release, a helper whose summary drains a ledger, or a
// store into a field named *charge*. Two edge refinements model the
// conventions under which an obligation never existed: a value from
// `v, err := f()` is nil on the err != nil edge, and a charge whose
// decision compares == flow.Shed took nothing on that edge.
type CloseFlowCheck struct{}

// Name returns "closeflow".
func (*CloseFlowCheck) Name() string { return "closeflow" }

// Run reports every obligation that can reach a return undischarged,
// plus deferred releases inside loops (which run at function exit, not
// per iteration).
func (c *CloseFlowCheck) Run(pkg *Package) []Finding {
	var fs []Finding
	eachBody(pkg, func(decl *ast.FuncDecl, lit *ast.FuncLit) {
		an := &closeFlow{
			pkg:     pkg,
			sum:     pkg.summaries(),
			fn:      bodyName(decl, lit),
			bound:   make(map[types.Object][]int),
			aliasOf: make(map[types.Object]types.Object),
			assigns: make(map[types.Object][]token.Pos),
			events:  make(map[ast.Node][]event),
		}
		if lit != nil {
			fs = append(fs, an.run(nil, lit.Body)...)
		} else {
			fs = append(fs, an.run(decl, decl.Body)...)
		}
	})
	return fs
}

// eachBody calls f for every function body in pkg: each declaration with
// lit nil, then each function literal inside it (nested ones included),
// and each literal in a package-level initializer with decl nil.
func eachBody(pkg *Package, f func(decl *ast.FuncDecl, lit *ast.FuncLit)) {
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			fd, _ := d.(*ast.FuncDecl)
			if fd != nil && fd.Body != nil {
				f(fd, nil)
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					f(fd, fl)
				}
				return true
			})
		}
	}
}

// bodyName names a body for findings: "f", "f (func literal)", or
// "func literal" at package level.
func bodyName(decl *ast.FuncDecl, lit *ast.FuncLit) string {
	switch {
	case lit == nil:
		return decl.Name.Name
	case decl == nil:
		return "func literal"
	}
	return decl.Name.Name + " (func literal)"
}

// obligation is one owned value, parameter or ledger charge.
type obligation struct {
	id   int
	pos  token.Pos
	what string // the finding's subject: "*bufpool.Lease from Get", "parameter l"
	// charge marks a ledger charge: drain events discharge it, and a
	// == flow.Shed edge on admit (or on decVar, the variable the decision
	// was bound to) cancels it.
	charge bool
	admit  *ast.CallExpr
	decVar types.Object
	// errVar, when set, is the error result assigned alongside a value;
	// on the errVar != nil edge the value is nil. The refinement is valid
	// only for conditions positioned before errValid (the next
	// reassignment of errVar), or anywhere when errValid is NoPos.
	errVar   types.Object
	errValid token.Pos
}

// event is one ownership-relevant action inside a statement. The scanners
// emit a statement's kills and drains before its acquires, so
// `l = regrow(l, n)` discharges the old obligation before binding the new
// one.
type event struct {
	kill  types.Object // discharge every obligation bound to this variable
	drain bool         // discharge every live charge
	// Otherwise the event acquires obligation ob — when inherit is set,
	// only if the statement's kills discharged something (a literal that
	// a live value was stored into).
	ob      int
	inherit bool
}

// closeFlow carries one function body's analysis.
type closeFlow struct {
	pkg  *Package
	sum  *summarizer
	fn   string
	obls []*obligation
	// bound maps a variable to the obligations ever bound to it
	// (flow-insensitive binding; the dataflow tracks liveness).
	bound map[types.Object][]int
	// aliasOf maps a plain `a := l` alias to its root variable.
	aliasOf map[types.Object]types.Object
	// assigns records positions where each variable is assigned, to bound
	// the validity window of the err-branch refinement.
	assigns map[types.Object][]token.Pos
	// events holds each block statement's events, and each block
	// condition's under the condition expression.
	events   map[ast.Node][]event
	findings []Finding
}

// run analyses one body; decl is set when the body is the declaration's
// own, whose consumed parameters are then obligations.
func (an *closeFlow) run(decl *ast.FuncDecl, body *ast.BlockStmt) []Finding {
	an.deferInLoop(body)
	entry := make(map[int]bool)
	if decl != nil {
		// A parameter the function consumes on some path is an obligation
		// from entry; //jbsvet:owns is a contract taken on trust.
		if fn, ok := an.pkg.Info.Defs[decl.Name].(*types.Func); ok && an.sum.mark(fn, an.pkg) != ownsMarker {
			sum := an.sum.summaryFor(fn, an.pkg)
			params := fn.Type().(*types.Signature).Params()
			for i := 0; i < params.Len(); i++ {
				if p := params.At(i); sum.effectOn(i).consumes() {
					ob := an.newObligation(p.Pos(), "parameter "+p.Name())
					an.bound[p] = []int{ob.id}
					entry[ob.id] = true
				}
			}
		}
	}
	g := cfg.Build(body)
	for _, b := range g.Blocks {
		for _, s := range b.Stmts {
			an.events[s] = an.scanStmt(s)
		}
		if b.Cond != nil {
			an.events[b.Cond] = an.scanExpr(b.Cond, false)
		}
	}
	if len(an.obls) == 0 {
		return an.findings
	}
	for _, ob := range an.obls {
		// Bound each err-branch refinement at the first reassignment of
		// its error variable after the acquire.
		for _, p := range an.assigns[ob.errVar] {
			if p > ob.pos && (ob.errValid == token.NoPos || p < ob.errValid) {
				ob.errValid = p
			}
		}
	}
	in := cfg.Forward(g, entry, an.flow, joinSet[int])
	for id := range in[g.Exit.Index] {
		ob := an.obls[id]
		if ob.charge {
			an.report(ob.pos, "ledger charge from Admit may not be drained (Release, drained helper, or charge-field store) on every path (in %s)", an.fn)
		} else {
			an.report(ob.pos, "%s may not be released or ownership-transferred on every path (in %s)", ob.what, an.fn)
		}
	}
	SortFindings(an.findings)
	return an.findings
}

// joinSet is the may-reach join: union.
func joinSet[K comparable](dst, src map[K]bool) (map[K]bool, bool) {
	changed := false
	for k := range src {
		if !dst[k] {
			dst[k] = true
			changed = true
		}
	}
	return dst, changed
}

// flow computes the obligations leaving b toward b.Succs[si].
func (an *closeFlow) flow(b *cfg.Block, si int, in map[int]bool) map[int]bool {
	out := make(map[int]bool, len(in))
	for id := range in {
		out[id] = true
	}
	for _, s := range b.Stmts {
		an.apply(out, an.events[s])
	}
	if b.Cond == nil {
		return out
	}
	an.apply(out, an.events[b.Cond])
	info := an.pkg.Info
	// Succs[0] is the true edge. A nil value owns nothing, and a value is
	// nil exactly when its error is non-nil.
	if v, isEq := nilComparison(info, b.Cond); v != nil {
		if (si == 0) == isEq {
			for _, id := range an.killSet(v) {
				delete(out, id)
			}
		} else {
			for id := range out {
				ob := an.obls[id]
				if ob.errVar == v && b.Cond.Pos() > ob.pos && (ob.errValid == token.NoPos || b.Cond.Pos() < ob.errValid) {
					delete(out, id)
				}
			}
		}
	}
	// Shed charges nothing: for "== Shed" that is the true edge, for
	// "!= Shed" the false edge.
	if x, isEq := shedComparison(info, b.Cond); x != nil && (si == 0) == isEq {
		for id := range out {
			ob := an.obls[id]
			if ob.admit == x || (ob.decVar != nil && identObj(info, x) == ob.decVar) {
				delete(out, id)
			}
		}
	}
	return out
}

// apply runs one statement's (or condition's) events over state.
func (an *closeFlow) apply(state map[int]bool, evs []event) {
	killed := false
	for _, ev := range evs {
		switch {
		case ev.kill != nil:
			for _, id := range an.killSet(ev.kill) {
				killed = killed || state[id]
				delete(state, id)
			}
		case ev.drain:
			for id := range state {
				if an.obls[id].charge {
					delete(state, id)
				}
			}
		case !ev.inherit || killed:
			state[ev.ob] = true
		}
	}
}

func (an *closeFlow) report(pos token.Pos, format string, args ...any) {
	an.findings = append(an.findings, Finding{
		Pos:     an.pkg.Fset.Position(pos),
		Check:   "closeflow",
		Message: fmt.Sprintf(format, args...),
	})
}

func (an *closeFlow) newObligation(pos token.Pos, what string) *obligation {
	ob := &obligation{id: len(an.obls), pos: pos, what: what}
	an.obls = append(an.obls, ob)
	return ob
}

// acquireShape classifies call: does it return a value the caller then
// owns? It returns the result index of the value and of an accompanying
// error result, each -1 when absent.
func (an *closeFlow) acquireShape(call *ast.CallExpr) (valIdx, errIdx int) {
	info := an.pkg.Info
	valIdx, errIdx = -1, -1
	if tv, found := info.Types[call.Fun]; found && tv.IsType() {
		return -1, -1 // conversion, not a call
	}
	if fn := staticCallee(info, call); fn != nil && an.sum.mark(fn, an.pkg) == borrowedMarker {
		return -1, -1
	}
	switch t := info.TypeOf(call).(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			et := t.At(i).Type()
			if valIdx < 0 && isCloser(et) {
				valIdx = i
			}
			if errIdx < 0 && types.Identical(et, types.Universe.Lookup("error").Type()) {
				errIdx = i
			}
		}
	case nil:
	default:
		if isCloser(t) {
			valIdx = 0
		}
	}
	return valIdx, errIdx
}

// acquired names the value result valIdx of call for findings:
// "*bufpool.Lease from Get".
func (an *closeFlow) acquired(call *ast.CallExpr, valIdx int) string {
	t := an.pkg.Info.TypeOf(call)
	if tup, ok := t.(*types.Tuple); ok {
		t = tup.At(valIdx).Type()
	}
	return typeName(t) + " from " + calleeName(an.pkg.Info, call)
}

// typeName renders t with package names, not paths: "*bufpool.Lease".
func typeName(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

// calleeName names the call for findings: "F" or "M".
func calleeName(info *types.Info, call *ast.CallExpr) string {
	if fn := staticCallee(info, call); fn != nil {
		return fn.Name()
	}
	return "call"
}

// ownedVar resolves e to a variable that can carry an obligation, or nil.
func (an *closeFlow) ownedVar(e ast.Expr) types.Object {
	obj := identObj(an.pkg.Info, e)
	if v, ok := obj.(*types.Var); ok && ownedParam(v.Type()) {
		return v
	}
	return nil
}

// identObj resolves a (parenthesized) identifier to its object, or nil.
func identObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// killSet expands a kill on v to its alias class.
func (an *closeFlow) killSet(v types.Object) []int {
	root := v
	for an.aliasOf[root] != nil {
		root = an.aliasOf[root]
	}
	ids := append(an.bound[v], an.bound[root]...)
	for a, r := range an.aliasOf {
		if r == root || r == v {
			ids = append(ids, an.bound[a]...)
		}
	}
	return ids
}

// bind binds a fresh obligation to obj. Rebinding a variable without
// consuming its old value is treated optimistically: the old value may
// have been released earlier on this path.
func (an *closeFlow) bind(obj types.Object, ob *obligation, inherit bool) []event {
	var evs []event
	if len(an.bound[obj]) > 0 {
		evs = append(evs, event{kill: obj})
	}
	an.bound[obj] = append(an.bound[obj], ob.id)
	delete(an.aliasOf, obj)
	return append(evs, event{ob: ob.id, inherit: inherit})
}

// deferInLoop reports deferred releases of values acquired in the same
// loop body: the defer runs at function exit, so every iteration after
// the first holds an unreleased value.
func (an *closeFlow) deferInLoop(body *ast.BlockStmt) {
	info := an.pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		var loopBody *ast.BlockStmt
		switch l := n.(type) {
		case *ast.ForStmt:
			loopBody = l.Body
		case *ast.RangeStmt:
			loopBody = l.Body
		default:
			return true
		}
		// Variables bound to acquires inside this loop body.
		acquired := make(map[types.Object]bool)
		ast.Inspect(loopBody, func(m ast.Node) bool {
			as, ok := m.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for _, rhs := range as.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok {
					continue
				}
				if i, _ := an.acquireShape(call); i >= 0 && i < len(as.Lhs) {
					if obj := identObj(info, as.Lhs[i]); obj != nil {
						acquired[obj] = true
					}
				}
			}
			return true
		})
		if len(acquired) == 0 {
			return true
		}
		ast.Inspect(loopBody, func(m ast.Node) bool {
			ds, ok := m.(*ast.DeferStmt)
			if !ok {
				return true
			}
			releases := false
			if sel, ok := ast.Unparen(ds.Call.Fun).(*ast.SelectorExpr); ok && isReleaseMethod(lookupMethod(info.TypeOf(sel.X), sel.Sel.Name)) {
				releases = acquired[identObj(info, sel.X)]
			}
			if fl, ok := ast.Unparen(ds.Call.Fun).(*ast.FuncLit); ok {
				ast.Inspect(fl.Body, func(inner ast.Node) bool {
					if id, ok := inner.(*ast.Ident); ok && acquired[info.Uses[id]] {
						releases = true
					}
					return true
				})
			}
			if releases {
				an.report(ds.Pos(), "deferred release inside loop runs at function exit, not per iteration (in %s)", an.fn)
			}
			return true
		})
		return true
	})
}

// scanStmt derives the ownership events of one block statement and
// reports immediately-diagnosable leaks (discarded acquire results).
func (an *closeFlow) scanStmt(s ast.Stmt) []event {
	switch st := s.(type) {
	case *ast.AssignStmt:
		return an.scanAssign(st.Lhs, st.Rhs, st.Tok)
	case *ast.DeclStmt:
		var evs []event
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) == 0 {
					continue
				}
				lhs := make([]ast.Expr, len(vs.Names))
				for i, n := range vs.Names {
					lhs[i] = n
				}
				evs = append(evs, an.scanAssign(lhs, vs.Values, token.DEFINE)...)
			}
		}
		return evs
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok {
			if vi, _ := an.acquireShape(call); vi >= 0 {
				an.report(call.Pos(), "result of %s is discarded: the value is never released (in %s)",
					calleeName(an.pkg.Info, call), an.fn)
				return an.scanExpr(call, true)
			}
		}
		return an.scanExpr(st.X, false)
	case *ast.ReturnStmt:
		var evs []event
		for _, res := range st.Results {
			// A value produced by the returned expression transfers to the
			// caller; nested arguments follow callee summaries.
			evs = append(evs, an.scanExpr(res, true)...)
		}
		return evs
	case *ast.DeferStmt:
		// A deferred release (or consuming callee, or capturing literal) is
		// treated as discharging immediately: it runs on every later exit.
		if fl, ok := ast.Unparen(st.Call.Fun).(*ast.FuncLit); ok {
			return an.captured(fl, true)
		}
		return an.scanExpr(st.Call, false)
	case *ast.GoStmt:
		// The goroutine takes over anything handed to it.
		evs := an.scanExpr(st.Call.Fun, true)
		for _, arg := range st.Call.Args {
			evs = append(evs, an.scanExpr(arg, true)...)
		}
		return evs
	case *ast.SendStmt:
		return append(an.scanExpr(st.Value, true), an.scanExpr(st.Chan, false)...)
	case *ast.RangeStmt:
		// Head block of a range loop: only the operand is evaluated here.
		// A loop that consumes every element consumes the slice.
		evs := an.scanExpr(st.X, false)
		if x, v := an.ownedVar(st.X), identObj(an.pkg.Info, st.Value); x != nil && v != nil {
			eff := new(paramEffect)
			an.sum.effects(an.pkg, st.Body, map[types.Object]*paramEffect{v: eff})
			if eff.consumes() {
				evs = append(evs, event{kill: x})
			}
		}
		return evs
	case *ast.IncDecStmt, *ast.BranchStmt, *ast.EmptyStmt:
		return nil
	}
	var evs []event
	ast.Inspect(s, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok {
			evs = append(evs, an.scanExpr(e, false)...)
			return false
		}
		return true
	})
	return evs
}

// scanAssign handles one assignment (or value-spec) statement.
func (an *closeFlow) scanAssign(lhs, rhs []ast.Expr, tok token.Token) []event {
	var evs []event
	info := an.pkg.Info
	for _, l := range lhs {
		if obj := identObj(info, l); obj != nil {
			an.assigns[obj] = append(an.assigns[obj], l.Pos())
		}
	}
	// local resolves lhs[i] to a plain variable; stored reports a field,
	// map or slice-element target, where ownership transfers.
	local := func(i int) types.Object {
		if i < 0 || i >= len(lhs) {
			return nil
		}
		if obj, ok := identObj(info, lhs[i]).(*types.Var); ok && obj.Name() != "_" {
			return obj
		}
		return nil
	}
	stored := func(i int) bool {
		if i < 0 || i >= len(lhs) {
			return false
		}
		switch ast.Unparen(lhs[i]).(type) {
		case *ast.SelectorExpr, *ast.IndexExpr:
			return true
		}
		return false
	}
	// Charge-field stores record an admitted amount for a later drain (the
	// supplier's resolved.charge convention).
	for _, l := range lhs {
		if sel, ok := ast.Unparen(l).(*ast.SelectorExpr); ok &&
			strings.Contains(strings.ToLower(sel.Sel.Name), "charge") {
			evs = append(evs, event{drain: true})
		}
	}

	for i, r := range rhs {
		r = ast.Unparen(r)
		call, _ := r.(*ast.CallExpr)
		li, vi, ei := i, -1, -1
		if call != nil {
			vi, ei = an.acquireShape(call)
		}
		if len(rhs) == 1 && len(lhs) > 1 {
			li = vi // tuple form: v, err := f(...)
		}
		if vi >= 0 {
			evs = append(evs, an.scanExpr(call, true)...)
			if stored(li) {
				continue // stored at birth: ownership transferred
			}
			obj := local(li)
			if obj == nil {
				// No variable a later path could discharge.
				an.report(call.Pos(), "%s is assigned to _ and never released (in %s)", an.acquired(call, vi), an.fn)
				continue
			}
			ob := an.newObligation(call.Pos(), an.acquired(call, vi))
			ob.errVar = local(ei)
			evs = append(evs, an.bind(obj, ob, false)...)
			continue
		}
		if v := an.ownedVar(r); v != nil && !stored(li) {
			if obj := local(li); obj != nil && tok == token.DEFINE {
				an.aliasOf[obj] = v // a := l
			}
			continue
		}
		evs = append(evs, an.scanExpr(r, stored(li))...)
		obj := local(li)
		if obj == nil {
			continue
		}
		if isLiteral(r) && isCloser(info.TypeOf(r)) {
			// A closer built around a live value inherits its obligation;
			// releasing what was stored into it discharges it too.
			ob := an.newObligation(r.Pos(), typeName(info.TypeOf(r))+" literal")
			for _, ev := range evs {
				if ev.kill != nil {
					an.bound[ev.kill] = append(an.bound[ev.kill], ob.id)
				}
			}
			evs = append(evs, an.bind(obj, ob, true)...)
		}
		if call != nil && ledgerMethod(staticCallee(info, call), "Admit") {
			for _, ob := range an.obls {
				if ob.admit == call {
					ob.decVar = obj
				}
			}
		}
	}
	return evs
}

// isLiteral reports whether e builds a composite literal: T{...} or &T{...}.
func isLiteral(e ast.Expr) bool {
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	_, ok := e.(*ast.CompositeLit)
	return ok
}

// scanExpr walks one expression, emitting kills for consumed owned
// variables, drains and charges, and reporting acquires whose result is
// unrecoverable. consumed says the expression's own value is accounted
// for (returned, stored, or owned by an enclosing call).
func (an *closeFlow) scanExpr(e ast.Expr, consumed bool) []event {
	var evs []event
	switch x := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		return an.scanCall(x, consumed)
	case *ast.Ident:
		if v := an.ownedVar(x); v != nil && consumed {
			evs = []event{{kill: v}}
		}
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			evs = append(evs, an.scanExpr(el, true)...) // stored in the literal
		}
	case *ast.FuncLit:
		evs = an.captured(x, consumed)
	case *ast.UnaryExpr:
		evs = an.scanExpr(x.X, consumed)
	case *ast.StarExpr:
		evs = an.scanExpr(x.X, false)
	case *ast.BinaryExpr:
		evs = append(an.scanExpr(x.X, false), an.scanExpr(x.Y, false)...)
	case *ast.SelectorExpr:
		// A bare (uncalled) selector of a consuming method is a method
		// value: binding `rel := l.Release` hands the obligation to the
		// closure, which the holder is responsible for invoking.
		fn, _ := an.pkg.Info.Uses[x.Sel].(*types.Func)
		s := an.sum.summaryFor(fn, an.pkg)
		evs = an.scanExpr(x.X, s != nil && s.recv.consumes())
	case *ast.IndexExpr:
		evs = append(an.scanExpr(x.X, false), an.scanExpr(x.Index, false)...)
	case *ast.SliceExpr:
		evs = an.scanExpr(x.X, false)
	case *ast.TypeAssertExpr:
		evs = an.scanExpr(x.X, consumed)
	case *ast.KeyValueExpr:
		evs = an.scanExpr(x.Value, consumed)
	}
	return evs
}

// scanCall handles one call: what it does with its receiver and
// arguments, then its own drain, charge, or discarded acquire.
func (an *closeFlow) scanCall(x *ast.CallExpr, consumed bool) []event {
	var evs []event
	callee := staticCallee(an.pkg.Info, x)
	csum := an.sum.summaryFor(callee, an.pkg)
	switch fun := ast.Unparen(x.Fun).(type) {
	case *ast.SelectorExpr:
		// Receiver consumption: l.Release() and annotated methods.
		evs = an.scanExpr(fun.X, csum != nil && csum.recv.consumes())
	case *ast.FuncLit:
		evs = an.captured(fun, false) // called in place
	}
	id, _ := ast.Unparen(x.Fun).(*ast.Ident)
	appends := callee == nil && id != nil && id.Name == "append"
	for i, arg := range x.Args {
		// append(s, v) stores v into the slice.
		evs = append(evs, an.scanExpr(arg, (appends && i > 0) || csum.effectOn(i).consumes())...)
	}
	if csum != nil && csum.drainsLedger {
		evs = append(evs, event{drain: true})
	}
	if ledgerMethod(callee, "Admit") {
		ob := an.newObligation(x.Pos(), "ledger charge")
		ob.charge, ob.admit = true, x
		evs = append(evs, event{ob: ob.id})
	} else if vi, _ := an.acquireShape(x); vi >= 0 && !consumed {
		an.report(x.Pos(), "%s is discarded and never released (in %s)", an.acquired(x, vi), an.fn)
	}
	return evs
}

// captured kills the owned variables a function literal captures and
// takes over: all of them when the literal escapes (run by go or defer,
// returned, stored), else only those its body discharges. A literal kept
// in a local and called in place borrows what it captures.
func (an *closeFlow) captured(fl *ast.FuncLit, escapes bool) []event {
	info := an.pkg.Info
	tracked := make(map[types.Object]*paramEffect)
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok && ownedParam(v.Type()) && tracked[v] == nil {
				tracked[v] = new(paramEffect)
			}
		}
		return true
	})
	if len(tracked) == 0 {
		return nil
	}
	if !escapes {
		an.sum.effects(an.pkg, fl.Body, tracked)
	}
	var evs []event
	for v, eff := range tracked {
		if escapes || eff.consumes() {
			evs = append(evs, event{kill: v})
		}
	}
	return evs
}

// nilComparison matches `x != nil` / `x == nil` conditions on a plain
// variable, returning the variable and whether the operator is ==.
func nilComparison(info *types.Info, cond ast.Expr) (v types.Object, isEq bool) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.NEQ && be.Op != token.EQL) {
		return nil, false
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	var x ast.Expr
	switch {
	case isNil(be.Y):
		x = be.X
	case isNil(be.X):
		x = be.Y
	}
	if obj, ok := identObj(info, x).(*types.Var); ok {
		return obj, be.Op == token.EQL
	}
	return nil, false
}

// shedComparison matches a condition of the form `x == flow.Shed` or
// `x != flow.Shed`, returning the compared expression and whether the
// operator is ==.
func shedComparison(info *types.Info, cond ast.Expr) (x ast.Expr, isEq bool) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.NEQ && be.Op != token.EQL) {
		return nil, false
	}
	isShed := func(e ast.Expr) bool {
		var id *ast.Ident
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			id = v
		case *ast.SelectorExpr:
			id = v.Sel
		}
		if id == nil {
			return false
		}
		obj := info.Uses[id]
		return obj != nil && obj.Name() == "Shed" && obj.Pkg() != nil &&
			strings.HasSuffix(obj.Pkg().Path(), "internal/flow")
	}
	switch {
	case isShed(be.Y):
		return ast.Unparen(be.X), be.Op == token.EQL
	case isShed(be.X):
		return ast.Unparen(be.Y), be.Op == token.EQL
	}
	return nil, false
}
