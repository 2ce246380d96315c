package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"strings"

	"repro/internal/analysis/cfg"
)

// LockCheck enforces JBS's lock hygiene rules on every function:
//
//  1. a sync.Mutex/RWMutex Lock (or RLock) must have a matching Unlock
//     (or RUnlock) — explicit or deferred — somewhere in the same
//     function;
//  2. no return statement may execute while a lock is held unless a
//     matching deferred unlock has been registered;
//  3. no blocking operation — channel send/receive, select without a
//     default, time.Sleep, sync.WaitGroup.Wait, or I/O on an
//     interface-typed or net.* value — may run while a mutex is held.
//
// Dedicated I/O-serialization mutexes (the repo convention: a name
// containing "send", "recv", "read", "write", or "io", e.g. sendMu /
// recvMu guarding a framed connection) are exempt from rule 3 — their
// whole purpose is holding across one I/O — but still subject to 1 and 2.
//
// The held-lock tracking runs on the function's CFG over lockorder's lock
// events, intraprocedurally: a lock counts as held at a statement only
// when every path reaching it holds the lock (a must-held meet), and as
// covered by a deferred unlock when some path registered one — once a
// defer is on the books it also covers later re-acquisitions. False
// negatives are possible; false positives should be rare.
type LockCheck struct{}

// Name implements Check.
func (*LockCheck) Name() string { return "lockhygiene" }

// Run implements Check.
func (c *LockCheck) Run(pkg *Package) []Finding {
	var out []Finding
	eachBody(pkg, func(decl *ast.FuncDecl, lit *ast.FuncLit) {
		s := &lockScanner{pkg: pkg, funcName: "func literal"}
		if lit != nil {
			s.scan(lit.Body)
		} else {
			s.funcName = decl.Name.Name
			s.scan(decl.Body)
		}
		out = append(out, s.findings...)
	})
	return out
}

// heldState is one lock key's state at a program point.
type heldState struct {
	held     bool // on every path reaching this point
	deferred bool // a matching deferred unlock is registered on some path
}

// heldSet maps a lock key ("s.mu") to its state.
type heldSet map[string]heldState

// apply updates the set for one lock event. A deferred Lock is not
// modeled.
func (h heldSet) apply(ev lockEvent) {
	st := h[ev.key]
	switch {
	case ev.method == "" || (ev.deferred && ev.acquires()):
		return
	case ev.acquires():
		st.held = true
	case ev.deferred:
		st.deferred = true
	default:
		st.held = false
	}
	if st.held || st.deferred {
		h[ev.key] = st
	} else {
		delete(h, ev.key)
	}
}

// meetHeld is the must-held meet: held where both paths hold the lock,
// deferred where either registered the unlock.
func meetHeld(dst, src heldSet) (heldSet, bool) {
	out := make(heldSet, len(dst))
	for k, st := range dst {
		st.held = st.held && src[k].held
		st.deferred = st.deferred || src[k].deferred
		if st.held || st.deferred {
			out[k] = st
		}
	}
	for k, st := range src {
		if _, ok := dst[k]; !ok && st.deferred {
			out[k] = heldState{deferred: true}
		}
	}
	changed := len(out) != len(dst)
	for k, st := range out {
		changed = changed || dst[k] != st
	}
	return out, changed
}

// exemptLock reports whether key names an I/O-serialization mutex.
func exemptLock(key string) bool {
	last := key
	if i := strings.LastIndexByte(key, '.'); i >= 0 {
		last = key[i+1:]
	}
	last = strings.ToLower(last)
	for _, s := range []string{"send", "recv", "read", "write", "io"} {
		if strings.Contains(last, s) {
			return true
		}
	}
	return false
}

// blockingHeld returns a held, non-exempt key, or "".
func blockingHeld(held heldSet) string {
	for k, st := range held {
		if st.held && !exemptLock(k) {
			return k
		}
	}
	return ""
}

type lockScanner struct {
	pkg      *Package
	funcName string
	findings []Finding
}

func (s *lockScanner) addf(pos token.Pos, format string, args ...any) {
	s.findings = append(s.findings, Finding{
		Pos:     position(s.pkg, pos),
		Check:   "lockhygiene",
		Message: fmt.Sprintf(format, args...),
	})
}

// scan checks one function body: balance over all its lock events, then
// each statement against the held set the dataflow computes before it.
func (s *lockScanner) scan(body *ast.BlockStmt) {
	lb := newLockBody(s.pkg, body)
	if lb == nil {
		return
	}
	s.balance(lb)
	in := cfg.Forward(lb.g, heldSet{}, func(b *cfg.Block, _ int, in heldSet) heldSet {
		out := maps.Clone(in)
		for _, n := range blockNodes(b) {
			for _, ev := range lb.events[n] {
				out.apply(ev)
			}
		}
		return out
	}, meetHeld)

	// A select's comm statements open its case blocks; the select itself
	// is the blocking operation, reported once.
	comms := make(map[ast.Node]*ast.SelectStmt)
	ast.Inspect(body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectStmt); ok {
			for _, cs := range sel.Body.List {
				if cc := cs.(*ast.CommClause); cc.Comm != nil {
					comms[cc.Comm] = sel
				}
			}
		}
		return true
	})
	reported := make(map[*ast.SelectStmt]bool)
	for _, b := range lb.g.Blocks {
		if in[b.Index] == nil {
			continue // unreachable
		}
		held := maps.Clone(in[b.Index])
		for _, n := range blockNodes(b) {
			if sel := comms[n]; sel != nil {
				if key := blockingHeld(held); key != "" && !reported[sel] && !hasDefault(sel) {
					s.addf(sel.Pos(), "blocking select while %s is held in %s", key, s.funcName)
				}
				reported[sel] = true
			} else {
				s.checkStmt(n, held)
			}
			for _, ev := range lb.events[n] {
				held.apply(ev)
			}
		}
	}
}

// balance reports locks that are never unlocked, explicitly or by defer,
// anywhere in the function.
func (s *lockScanner) balance(lb *lockBody) {
	type use struct{ key, method string } // method: Lock or RLock
	first := make(map[use]token.Pos)
	unlocked := make(map[use]bool)
	for _, evs := range lb.events {
		for _, ev := range evs {
			u := use{ev.key, strings.Replace(ev.method, "Unlock", "Lock", 1)}
			switch {
			case ev.method == "":
			case ev.acquires():
				if p, ok := first[u]; !ok || ev.pos < p {
					first[u] = ev.pos
				}
			default:
				unlocked[u] = true
			}
		}
	}
	for u, pos := range first {
		if !unlocked[u] {
			s.addf(pos, "%s.%s() in %s has no matching %s on any path",
				u.key, u.method, s.funcName, strings.Replace(u.method, "Lock", "Unlock", 1))
		}
	}
}

// hasDefault reports whether a select has a default clause (a poll).
func hasDefault(sel *ast.SelectStmt) bool {
	for _, cs := range sel.Body.List {
		if cs.(*ast.CommClause).Comm == nil {
			return true
		}
	}
	return false
}

// checkStmt flags what one statement (or block condition) does while a
// lock is held: a return with no deferred unlock, or a blocking operation
// under a state mutex.
func (s *lockScanner) checkStmt(n ast.Node, held heldSet) {
	key := blockingHeld(held)
	switch st := n.(type) {
	case *ast.ReturnStmt:
		s.checkBlocking(st, key)
		for k, state := range held {
			if state.held && !state.deferred {
				s.addf(st.Pos(), "return while %s is locked in %s (no deferred unlock)", k, s.funcName)
			}
		}
	case *ast.DeferStmt:
		// The deferred call runs at return, not here.
	case *ast.GoStmt:
		// The goroutine runs concurrently and does not inherit our locks;
		// only its argument expressions evaluate here.
		for _, arg := range st.Call.Args {
			s.checkBlocking(arg, key)
		}
	case *ast.RangeStmt:
		if t := s.pkg.Info.TypeOf(st.X); t != nil && key != "" {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				s.addf(st.Pos(), "range over channel while %s is held in %s", key, s.funcName)
			}
		}
		s.checkBlocking(st.X, key)
	default:
		s.checkBlocking(n, key)
	}
}

// checkBlocking flags blocking operations inside node (not descending into
// function literals) while key, a non-exempt lock, is held.
func (s *lockScanner) checkBlocking(node ast.Node, key string) {
	if key == "" {
		return
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			return false // separate goroutine/function context
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				s.addf(e.Pos(), "channel receive while %s is held in %s", key, s.funcName)
			}
		case *ast.SendStmt:
			s.addf(e.Pos(), "channel send while %s is held in %s", key, s.funcName)
		case *ast.CallExpr:
			s.checkBlockingCall(e, key)
		}
		return true
	})
}

// ioMethods are method names that block on a peer when invoked on an
// interface or net.* value.
var ioMethods = map[string]bool{
	"Read": true, "Write": true, "Send": true, "Recv": true,
	"Accept": true, "Dial": true, "ReadFrom": true, "WriteTo": true,
}

func (s *lockScanner) checkBlockingCall(call *ast.CallExpr, key string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, _ := s.pkg.Info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Sleep" {
			s.addf(call.Pos(), "time.Sleep while %s is held in %s", key, s.funcName)
		}
		return
	case "sync":
		// WaitGroup.Wait blocks on other goroutines (deadlock bait under a
		// lock); Cond.Wait releases the mutex and is fine.
		if fn.Name() == "Wait" {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil &&
				strings.Contains(recv.Type().String(), "WaitGroup") {
				s.addf(call.Pos(), "WaitGroup.Wait while %s is held in %s", key, s.funcName)
			}
		}
		return
	case "io":
		switch fn.Name() {
		case "Copy", "CopyN", "CopyBuffer", "ReadAll", "ReadFull", "ReadAtLeast":
			s.addf(call.Pos(), "io.%s while %s is held in %s", fn.Name(), key, s.funcName)
		}
		return
	}
	if !ioMethods[fn.Name()] {
		return
	}
	recvType := s.pkg.Info.TypeOf(sel.X)
	if recvType == nil {
		return
	}
	if _, isIface := recvType.Underlying().(*types.Interface); isIface || fromNetPackage(recvType) {
		s.addf(call.Pos(), "%s.%s (potential network I/O) while %s is held in %s",
			types.ExprString(sel.X), fn.Name(), key, s.funcName)
	}
}

// fromNetPackage reports whether t names a type from package net.
func fromNetPackage(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net"
}
