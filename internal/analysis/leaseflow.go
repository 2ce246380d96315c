package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/cfg"
)

// LeaseFlowCheck verifies the manual-memory ownership contract
// (docs/PERF.md) statically: every lease acquired in a function — any
// call returning *bufpool.Lease or *mof.FileHandle — must, on every
// control-flow path to return, either be Released or have its ownership
// transferred (returned, stored, sent, handed to a goroutine, or passed
// to a callee whose interprocedural summary says it releases, stores, or
// returns that parameter). Early-error returns are the classic leak
// site; the nil-on-error convention is modeled, so a lease from
// `l, err := f()` carries no obligation on the `err != nil` branch.
type LeaseFlowCheck struct{}

// Name returns "leaseflow".
func (*LeaseFlowCheck) Name() string { return "leaseflow" }

// Doc describes the check.
func (*LeaseFlowCheck) Doc() string {
	return "bufpool/mof leases must be released or ownership-transferred on every path"
}

// Run reports every lease obligation that can reach a return while still
// live, plus deferred releases inside loops (which run at function exit,
// not per iteration).
func (c *LeaseFlowCheck) Run(pkg *Package) []Finding {
	var fs []Finding
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := fd.Name.Name
			fs = append(fs, analyzeLeaseBody(pkg, name, fd.Body)...)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					fs = append(fs, analyzeLeaseBody(pkg, name+" (func literal)", fl.Body)...)
				}
				return true
			})
		}
	}
	return fs
}

// obligation is one acquired lease that must be discharged.
type obligation struct {
	id   int
	pos  token.Pos
	what string // callee description for the finding message
	// errVar, when set, is the error result assigned alongside the lease;
	// on the errVar != nil branch the lease is nil (no obligation). The
	// refinement is valid only for conditions positioned before errValid
	// (the next reassignment of errVar), or anywhere when errValid is
	// NoPos.
	errVar   types.Object
	errValid token.Pos
}

// event is one ownership-relevant action inside a statement. Kills are
// emitted before acquires so `l = regrow(l, n)` discharges the old
// obligation before binding the new one.
type event struct {
	kill    types.Object // discharge every obligation bound to this var
	acquire int          // obligation id to make live (when kill is nil)
}

// leaseAnalysis carries the per-body state.
type leaseAnalysis struct {
	pkg  *Package
	sum  *summarizer
	fn   string
	obls []*obligation
	// bound maps a variable to the obligations ever bound to it
	// (flow-insensitive binding; the dataflow tracks liveness).
	bound map[types.Object][]int
	// aliasOf maps a plain `a := l` alias to its root lease variable.
	aliasOf map[types.Object]types.Object
	// errAssigns records positions where each variable is assigned,
	// to bound the validity window of err-branch refinement.
	errAssigns map[types.Object][]token.Pos
	events     map[ast.Stmt][]event
	findings   []Finding
}

func analyzeLeaseBody(pkg *Package, fnName string, body *ast.BlockStmt) []Finding {
	var sum *summarizer
	if pkg.loader != nil {
		sum = pkg.loader.summaries()
	}
	an := &leaseAnalysis{
		pkg:        pkg,
		sum:        sum,
		fn:         fnName,
		bound:      make(map[types.Object][]int),
		aliasOf:    make(map[types.Object]types.Object),
		errAssigns: make(map[types.Object][]token.Pos),
		events:     make(map[ast.Stmt][]event),
	}
	an.deferInLoop(body)

	g := cfg.Build(body)
	for _, b := range g.Blocks {
		for _, s := range b.Stmts {
			an.events[s] = an.scanStmt(s)
		}
	}
	if len(an.obls) > 0 {
		an.finalizeErrWindows()
		an.solve(g)
	}
	return an.findings
}

// finalizeErrWindows bounds each obligation's err-branch refinement at
// the first reassignment of its error variable after the acquire.
func (an *leaseAnalysis) finalizeErrWindows() {
	for _, ob := range an.obls {
		if ob.errVar == nil {
			continue
		}
		for _, p := range an.errAssigns[ob.errVar] {
			if p > ob.pos && (ob.errValid == token.NoPos || p < ob.errValid) {
				ob.errValid = p
			}
		}
	}
}

// deferInLoop reports deferred releases of leases acquired in the same
// loop body: the defer runs at function exit, so every iteration after
// the first operates on an unreleased lease.
func (an *leaseAnalysis) deferInLoop(body *ast.BlockStmt) {
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
				if ok, leaseIdx, _ := an.acquireShape(call); ok {
					if leaseIdx < len(as.Lhs) {
						if id, ok := ast.Unparen(as.Lhs[leaseIdx]).(*ast.Ident); ok {
							if obj := info.Defs[id]; obj != nil {
								acquired[obj] = true
							} else if obj := info.Uses[id]; obj != nil {
								acquired[obj] = true
							}
						}
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
			releasesAcquired := false
			if sel, ok := ast.Unparen(ds.Call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Release" {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && acquired[info.Uses[id]] {
					releasesAcquired = true
				}
			}
			if fl, ok := ast.Unparen(ds.Call.Fun).(*ast.FuncLit); ok {
				ast.Inspect(fl.Body, func(inner ast.Node) bool {
					if id, ok := inner.(*ast.Ident); ok && acquired[info.Uses[id]] {
						releasesAcquired = true
					}
					return true
				})
			}
			if releasesAcquired {
				an.report(ds.Pos(), "deferred release inside loop runs at function exit, not per iteration (in %s)", an.fn)
			}
			return true
		})
		return true
	})
}

func (an *leaseAnalysis) report(pos token.Pos, format string, args ...any) {
	an.findings = append(an.findings, Finding{
		Pos:     an.pkg.Fset.Position(pos),
		Check:   "leaseflow",
		Message: fmt.Sprintf(format, args...),
	})
}

// acquireShape classifies call: does it yield a lease the caller then
// owns? Returns the result index of the lease and of an accompanying
// error result (-1 when absent).
func (an *leaseAnalysis) acquireShape(call *ast.CallExpr) (ok bool, leaseIdx, errIdx int) {
	info := an.pkg.Info
	if tv, found := info.Types[call.Fun]; found && tv.IsType() {
		return false, -1, -1 // conversion, not a call
	}
	tv, found := info.Types[call]
	if !found {
		return false, -1, -1
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		leaseIdx, errIdx = -1, -1
		for i := 0; i < t.Len(); i++ {
			et := t.At(i).Type()
			if leaseIdx < 0 && isLeaseType(et) {
				leaseIdx = i
			}
			if errIdx < 0 && types.Identical(et, types.Universe.Lookup("error").Type()) {
				errIdx = i
			}
		}
		return leaseIdx >= 0, leaseIdx, errIdx
	default:
		if tv.Type != nil && isLeaseType(tv.Type) {
			return true, 0, -1
		}
	}
	return false, -1, -1
}

// calleeDescription names the call for findings: "pkg.F" or "T.M".
func calleeDescription(info *types.Info, call *ast.CallExpr) string {
	if fn := staticCallee(info, call); fn != nil {
		return fn.Name()
	}
	return "call"
}

// leaseVar resolves e to a variable currently known to bind lease
// obligations (directly or through an alias), or nil.
func (an *leaseAnalysis) leaseVar(e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := an.pkg.Info.Uses[id]
	if obj == nil {
		obj = an.pkg.Info.Defs[id]
	}
	if obj == nil {
		return nil
	}
	if _, ok := obj.(*types.Var); !ok {
		return nil
	}
	if !isLeaseType(obj.Type()) {
		return nil
	}
	return obj
}

// killSet expands a kill on v to its alias class.
func (an *leaseAnalysis) killSet(v types.Object) []int {
	root := v
	for an.aliasOf[root] != nil {
		root = an.aliasOf[root]
	}
	var ids []int
	seen := make(map[int]bool)
	add := func(obj types.Object) {
		for _, id := range an.bound[obj] {
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
	}
	add(v)
	add(root)
	for a, r := range an.aliasOf {
		if r == root || r == v {
			add(a)
		}
	}
	return ids
}

// newObligation registers an acquire.
func (an *leaseAnalysis) newObligation(call *ast.CallExpr) *obligation {
	ob := &obligation{
		id:   len(an.obls),
		pos:  call.Pos(),
		what: calleeDescription(an.pkg.Info, call),
	}
	an.obls = append(an.obls, ob)
	return ob
}

// scanStmt derives the ordered ownership events of one block statement
// and reports immediately-diagnosable leaks (discarded acquire results).
func (an *leaseAnalysis) scanStmt(s ast.Stmt) []event {
	var evs []event
	switch st := s.(type) {
	case *ast.AssignStmt:
		evs = an.scanAssign(st.Lhs, st.Rhs, st.Tok)
	case *ast.DeclStmt:
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
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok {
			if ok, _, _ := an.acquireShape(call); ok {
				an.report(call.Pos(), "result of %s is discarded: the lease is never released (in %s)",
					calleeDescription(an.pkg.Info, call), an.fn)
				// Consumed for tracking purposes: already reported.
				evs = append(evs, an.scanExpr(call, true)...)
				return evs
			}
		}
		evs = append(evs, an.scanExpr(st.X, false)...)
	case *ast.ReturnStmt:
		for _, res := range st.Results {
			if v := an.leaseVar(res); v != nil {
				evs = append(evs, event{kill: v})
				continue
			}
			// A lease produced by the returned expression transfers to the
			// caller; nested arguments follow callee summaries.
			evs = append(evs, an.scanExpr(res, true)...)
		}
	case *ast.DeferStmt:
		evs = append(evs, an.scanDeferredCall(st.Call)...)
	case *ast.GoStmt:
		// The goroutine takes over anything handed to it.
		for _, arg := range st.Call.Args {
			if v := an.leaseVar(arg); v != nil {
				evs = append(evs, event{kill: v})
			} else {
				evs = append(evs, an.scanExpr(arg, true)...)
			}
		}
		if fl, ok := ast.Unparen(st.Call.Fun).(*ast.FuncLit); ok {
			evs = append(evs, an.capturedKills(fl)...)
		}
	case *ast.SendStmt:
		if v := an.leaseVar(st.Value); v != nil {
			evs = append(evs, event{kill: v})
		} else {
			evs = append(evs, an.scanExpr(st.Value, true)...)
		}
		evs = append(evs, an.scanExpr(st.Chan, false)...)
	case *ast.RangeStmt:
		// Head block of a range loop: only the operand is evaluated here.
		evs = append(evs, an.scanExpr(st.X, false)...)
	case *ast.IncDecStmt, *ast.BranchStmt, *ast.EmptyStmt:
		// no ownership effects
	default:
		// Fallback: scan any expressions reachable without a context.
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				evs = append(evs, an.scanExpr(e, false)...)
				return false
			}
			return true
		})
	}
	return sortEvents(evs)
}

// sortEvents moves kills ahead of acquires so a statement that both
// consumes and produces (l = regrow(l, n)) discharges first.
func sortEvents(evs []event) []event {
	var kills, acquires []event
	for _, e := range evs {
		if e.kill != nil {
			kills = append(kills, e)
		} else {
			acquires = append(acquires, e)
		}
	}
	return append(kills, acquires...)
}

// scanDeferredCall handles defer: a deferred Release (or consuming
// callee, or capturing literal) is treated as discharging immediately —
// it is guaranteed to run on every subsequent exit from the function.
func (an *leaseAnalysis) scanDeferredCall(call *ast.CallExpr) []event {
	var evs []event
	if fl, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		evs = append(evs, an.capturedKills(fl)...)
		return evs
	}
	evs = append(evs, an.scanExpr(call, false)...)
	return evs
}

// capturedKills kills every lease variable referenced inside a function
// literal: the capture hands the obligation to the literal (which is
// itself analyzed as a separate body).
func (an *leaseAnalysis) capturedKills(fl *ast.FuncLit) []event {
	var evs []event
	info := an.pkg.Info
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				if _, isVar := obj.(*types.Var); isVar && isLeaseType(obj.Type()) {
					evs = append(evs, event{kill: obj})
				}
			}
		}
		return true
	})
	return evs
}

// scanAssign handles one assignment (or value-spec) statement.
func (an *leaseAnalysis) scanAssign(lhs, rhs []ast.Expr, tok token.Token) []event {
	var evs []event
	info := an.pkg.Info

	// Record every plain-variable assignment position for err-window
	// bounding.
	for _, l := range lhs {
		if id, ok := ast.Unparen(l).(*ast.Ident); ok && id.Name != "_" {
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj != nil {
				an.errAssigns[obj] = append(an.errAssigns[obj], id.Pos())
			}
		}
	}

	lhsObj := func(i int) (types.Object, *ast.Ident) {
		if i >= len(lhs) {
			return nil, nil
		}
		id, ok := ast.Unparen(lhs[i]).(*ast.Ident)
		if !ok || id.Name == "_" {
			return nil, nil
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		return obj, id
	}
	lhsEscapes := func(i int) bool {
		if i >= len(lhs) {
			return false
		}
		switch ast.Unparen(lhs[i]).(type) {
		case *ast.SelectorExpr, *ast.IndexExpr:
			return true
		}
		return false
	}

	// Tuple form: l, err := f(...)
	if len(rhs) == 1 && len(lhs) > 1 {
		if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok {
			if isAcq, leaseIdx, errIdx := an.acquireShape(call); isAcq {
				evs = append(evs, an.scanExpr(call, true)...) // consume nested acquires via callee
				if lhsEscapes(leaseIdx) {
					return evs // stored at birth: ownership transferred
				}
				obj, _ := lhsObj(leaseIdx)
				if obj == nil {
					// Blank-assigned lease: report here and track nothing —
					// there is no variable a later path could discharge.
					an.report(call.Pos(), "lease from %s is assigned to _ and never released (in %s)",
						calleeDescription(an.pkg.Info, call), an.fn)
					return evs
				}
				ob := an.newObligation(call)
				evs = append(evs, event{acquire: ob.id, kill: nil})
				evs = append(evs, killBeforeRebind(an, obj)...)
				an.bound[obj] = append(an.bound[obj], ob.id)
				delete(an.aliasOf, obj)
				if errIdx >= 0 {
					if eobj, _ := lhsObj(errIdx); eobj != nil {
						ob.errVar = eobj
					}
				}
				return evs
			}
		}
	}

	// Positional forms.
	for i, r := range rhs {
		r = ast.Unparen(r)
		li := i
		if len(lhs) != len(rhs) {
			li = -1
		}
		if call, ok := r.(*ast.CallExpr); ok {
			if isAcq, _, _ := an.acquireShape(call); isAcq {
				evs = append(evs, an.scanExpr(call, true)...)
				if li >= 0 && lhsEscapes(li) {
					continue // stored at birth
				}
				var obj types.Object
				if li >= 0 {
					obj, _ = lhsObj(li)
				}
				if obj == nil {
					an.report(call.Pos(), "lease from %s is discarded and never released (in %s)",
						calleeDescription(info, call), an.fn)
					continue
				}
				ob := an.newObligation(call)
				evs = append(evs, killBeforeRebind(an, obj)...)
				evs = append(evs, event{acquire: ob.id})
				an.bound[obj] = append(an.bound[obj], ob.id)
				delete(an.aliasOf, obj)
				continue
			}
		}
		// Alias or escape of an existing lease variable.
		if v := an.leaseVar(r); v != nil {
			if li >= 0 && lhsEscapes(li) {
				evs = append(evs, event{kill: v}) // stored: ownership transferred
				continue
			}
			if li >= 0 {
				if obj, _ := lhsObj(li); obj != nil && tok == token.DEFINE {
					an.aliasOf[obj] = v // a := l
					continue
				}
			}
			continue
		}
		// Anything else: scan generically. Composite literals and calls
		// consume lease variables per the transfer rules.
		consumed := li >= 0 && lhsEscapes(li)
		evs = append(evs, an.scanExpr(r, consumed)...)
	}
	return evs
}

// killBeforeRebind discharges obligations already bound to obj when it
// is rebound by a fresh acquire: `l = regrow(l, n)` style code has
// already consumed the old lease via the callee's summary; rebinding
// without consumption is treated optimistically (the old value may have
// been released earlier on this path).
func killBeforeRebind(an *leaseAnalysis, obj types.Object) []event {
	if len(an.bound[obj]) == 0 {
		return nil
	}
	return []event{{kill: obj}}
}

// scanExpr walks one expression, emitting kills for consumed lease
// variables and reporting acquires that happen in a position where the
// result is unrecoverable. consumed says the expression's own value is
// accounted for (returned, stored, or owned by an enclosing call).
func (an *leaseAnalysis) scanExpr(e ast.Expr, consumed bool) []event {
	var evs []event
	if e == nil {
		return nil
	}
	info := an.pkg.Info
	switch x := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if isAcq, _, _ := an.acquireShape(x); isAcq && !consumed {
			an.report(x.Pos(), "lease from %s is discarded and never released (in %s)",
				calleeDescription(info, x), an.fn)
		}
		callee := staticCallee(info, x)
		var csum *funcSummary
		if an.sum != nil && callee != nil {
			csum = an.sum.summaryFor(callee, an.pkg)
		}
		// Receiver consumption: l.Release() and annotated methods.
		if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
			recvConsumes := csum != nil && csum.recv.consumes()
			if v := an.leaseVar(sel.X); v != nil && recvConsumes {
				evs = append(evs, event{kill: v})
			} else {
				evs = append(evs, an.scanExpr(sel.X, recvConsumes)...)
			}
		}
		if callee == nil {
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "append" {
				for i, arg := range x.Args {
					if i == 0 {
						evs = append(evs, an.scanExpr(arg, false)...)
						continue
					}
					if v := an.leaseVar(arg); v != nil {
						evs = append(evs, event{kill: v})
					} else {
						evs = append(evs, an.scanExpr(arg, true)...)
					}
				}
				return evs
			}
		}
		for i, arg := range x.Args {
			argConsumed := csum.effectOn(i).consumes()
			if v := an.leaseVar(arg); v != nil {
				if argConsumed {
					evs = append(evs, event{kill: v})
				}
				continue
			}
			evs = append(evs, an.scanExpr(arg, argConsumed)...)
		}
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			val := el
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				val = kv.Value
			}
			if v := an.leaseVar(val); v != nil {
				evs = append(evs, event{kill: v}) // stored in the literal
				continue
			}
			evs = append(evs, an.scanExpr(val, true)...)
		}
	case *ast.FuncLit:
		evs = append(evs, an.capturedKills(x)...)
	case *ast.UnaryExpr:
		evs = append(evs, an.scanExpr(x.X, consumed)...)
	case *ast.StarExpr:
		evs = append(evs, an.scanExpr(x.X, false)...)
	case *ast.BinaryExpr:
		evs = append(evs, an.scanExpr(x.X, false)...)
		evs = append(evs, an.scanExpr(x.Y, false)...)
	case *ast.SelectorExpr:
		// A bare (uncalled) selector of a consuming method is a method
		// value: binding `rel := l.Release` hands the obligation to the
		// closure, which the holder is responsible for invoking.
		if fn, ok := info.Uses[x.Sel].(*types.Func); ok && an.sum != nil {
			if s := an.sum.summaryFor(fn, an.pkg); s != nil && s.recv.consumes() {
				if v := an.leaseVar(x.X); v != nil {
					evs = append(evs, event{kill: v})
					return evs
				}
			}
		}
		evs = append(evs, an.scanExpr(x.X, false)...)
	case *ast.IndexExpr:
		evs = append(evs, an.scanExpr(x.X, false)...)
		evs = append(evs, an.scanExpr(x.Index, false)...)
	case *ast.SliceExpr:
		evs = append(evs, an.scanExpr(x.X, false)...)
	case *ast.TypeAssertExpr:
		evs = append(evs, an.scanExpr(x.X, consumed)...)
	case *ast.KeyValueExpr:
		evs = append(evs, an.scanExpr(x.Value, consumed)...)
	}
	return evs
}

// solve runs the must-discharge dataflow over the CFG and reports
// obligations still live at exit.
func (an *leaseAnalysis) solve(g *cfg.Graph) {
	n := len(g.Blocks)
	// in live sets per block; the out state is recomputed per edge so
	// cond blocks can apply err-branch refinement per successor.
	in := make([]map[int]bool, n)

	union := func(dst, src map[int]bool) bool {
		changed := false
		for id := range src {
			if !dst[id] {
				dst[id] = true
				changed = true
			}
		}
		return changed
	}

	// outFor computes the state leaving block b toward succ index si.
	outFor := func(b *cfg.Block, si int, inState map[int]bool) map[int]bool {
		out := make(map[int]bool, len(inState))
		for id := range inState {
			out[id] = true
		}
		for _, s := range b.Stmts {
			for _, ev := range an.events[s] {
				if ev.kill != nil {
					for _, id := range an.killSet(ev.kill) {
						delete(out, id)
					}
				} else {
					out[ev.acquire] = true
				}
			}
		}
		if b.Cond != nil && len(b.Succs) == 2 {
			if v, isEq := nilComparison(an.pkg.Info, b.Cond); v != nil {
				// Succs[0] is the true edge. The lease is nil exactly when
				// the error is non-nil: for "err != nil" that is the true
				// edge, for "err == nil" the false edge.
				killEdge := (si == 0) != isEq
				if killEdge {
					for _, ob := range an.obls {
						if ob.errVar == v && out[ob.id] && an.errWindowValid(ob, b.Cond.Pos()) {
							delete(out, ob.id)
						}
					}
				}
			}
		}
		return out
	}

	// Worklist fixpoint.
	for i := range in {
		in[i] = make(map[int]bool)
	}
	work := make([]*cfg.Block, 0, n)
	inWork := make([]bool, n)
	push := func(b *cfg.Block) {
		if !inWork[b.Index] {
			inWork[b.Index] = true
			work = append(work, b)
		}
	}
	// Seed every block, not just the entry: propagation is change-driven,
	// and a block whose first computed out-state is empty would otherwise
	// never enqueue its successors — an acquire downstream of an early
	// branch would go entirely unanalyzed.
	for i := len(g.Blocks) - 1; i >= 0; i-- {
		push(g.Blocks[i])
	}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[b.Index] = false
		for si, s := range b.Succs {
			out := outFor(b, si, in[b.Index])
			if union(in[s.Index], out) {
				push(s)
			}
		}
	}

	for id := range in[g.Exit.Index] {
		ob := an.obls[id]
		an.report(ob.pos, "lease from %s may not be released or ownership-transferred on every path (in %s)",
			ob.what, an.fn)
	}
	SortFindings(an.findings)
}

// errWindowValid reports whether the err-branch refinement of ob still
// applies at condPos (the error variable has not been reassigned in
// between).
func (an *leaseAnalysis) errWindowValid(ob *obligation, condPos token.Pos) bool {
	if ob.errValid == token.NoPos {
		return condPos > ob.pos
	}
	return condPos > ob.pos && condPos < ob.errValid
}

// nilComparison matches `x != nil` / `x == nil` conditions on a plain
// variable, returning the variable and whether the operator is ==.
func nilComparison(info *types.Info, cond ast.Expr) (v types.Object, isEq bool) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.NEQ && be.Op != token.EQL) {
		return nil, false
	}
	x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
	isNilIdent := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "nil"
	}
	var id *ast.Ident
	switch {
	case isNilIdent(y):
		id, _ = x.(*ast.Ident)
	case isNilIdent(x):
		id, _ = y.(*ast.Ident)
	}
	if id == nil {
		return nil, false
	}
	obj := info.Uses[id]
	if _, isVar := obj.(*types.Var); !isVar {
		return nil, false
	}
	return obj, be.Op == token.EQL
}
