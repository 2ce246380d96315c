package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis/cfg"
)

// LockOrderCheck builds a repo-wide mutex acquisition-order graph and
// fails on cycles: if one code path locks A then B while another locks B
// then A, the two paths can deadlock against each other even though each
// is locally well-formed (lockhygiene passes). Mutexes are identified at
// type granularity — the struct field object for field mutexes (shared
// by all instances of the type), the variable object for package-level
// mutexes, and the named type for embedded ones. Edges come from direct
// nested Lock calls and, interprocedurally, from calling a function
// whose transitive lockset is known while holding a lock. Goroutine
// launches do not propagate the held set (a spawned goroutine starts
// with no locks of its creator), and call-edge self-loops are skipped —
// helper recursion at type granularity would otherwise self-report.
type LockOrderCheck struct{}

// Name returns "lockorder".
func (*LockOrderCheck) Name() string { return "lockorder" }

// Run implements Check; lockorder is whole-program, so the per-package
// pass reports nothing.
func (*LockOrderCheck) Run(pkg *Package) []Finding { return nil }

// RunProgram implements ProgramCheck over every in-scope package.
func (c *LockOrderCheck) RunProgram(pkgs []*Package) []Finding {
	lo := &lockOrder{
		edges:    make(map[[2]types.Object]*lockEdge),
		locksets: make(map[*types.Func]map[types.Object]token.Pos),
		inLS:     make(map[*types.Func]bool),
	}
	for _, pkg := range pkgs {
		lo.sum = pkg.summaries()
		// A literal may run on any goroutine; it is analysed with an empty
		// held set of its own.
		eachBody(pkg, func(decl *ast.FuncDecl, lit *ast.FuncLit) {
			if lit != nil {
				lo.analyzeBody(pkg, bodyName(decl, lit), lit.Body)
			} else {
				lo.analyzeBody(pkg, bodyName(decl, lit), decl.Body)
			}
		})
	}
	return lo.cycles()
}

// lockEdge records the first witness of "to acquired while from held".
type lockEdge struct {
	from, to types.Object
	pos      token.Position
	fn       string
	note     string // "" for a direct Lock, else the callee path
}

type lockOrder struct {
	sum   *summarizer
	edges map[[2]types.Object]*lockEdge

	// locksets memoizes the set of mutexes a function may acquire,
	// directly or transitively, with one witness position each.
	locksets map[*types.Func]map[types.Object]token.Pos
	inLS     map[*types.Func]bool
}

// mutexIdent resolves the receiver of a sync.Mutex/RWMutex method call
// to a stable identity object, or nil.
func mutexIdent(pkg *Package, recv ast.Expr) types.Object {
	recv = ast.Unparen(recv)
	// Embedded mutex: the receiver's own type is not from package sync.
	t := pkg.Info.TypeOf(recv)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		if obj := named.Obj(); obj.Pkg() != nil && obj.Pkg().Path() != "sync" {
			return obj
		}
	}
	switch r := recv.(type) {
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[r]; ok {
			// Field var: shared by every instance of the declaring struct,
			// giving type granularity for free.
			return sel.Obj()
		}
		return pkg.Info.Uses[r.Sel] // pkg.Var
	case *ast.Ident:
		return pkg.Info.Uses[r]
	}
	return nil
}

// syncLockCall classifies call as a Lock/RLock/Unlock/RUnlock on a
// sync.Mutex or sync.RWMutex, returning the receiver expression.
func syncLockCall(pkg *Package, call *ast.CallExpr) (recv ast.Expr, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	fn, _ := pkg.Info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, "", false
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return sel.X, fn.Name(), true
	}
	return nil, "", false
}

// lockEvent is one ordered mutex action within a statement: a sync lock
// call (method set), or a call whose transitive lockset counts (callee
// set). lockorder and lockhygiene both run on these.
type lockEvent struct {
	// obj is the mutex's type-granular identity (lockorder), nil when
	// unresolvable; key is its receiver as written, "s.mu" (lockhygiene).
	obj      types.Object
	key      string
	pos      token.Pos
	method   string // Lock, RLock, Unlock or RUnlock
	deferred bool   // registered by defer: runs at function exit
	callee   *types.Func
}

func (ev lockEvent) acquires() bool { return ev.method == "Lock" || ev.method == "RLock" }

// lockEvents extracts the ordered lock events of one statement (or a
// condition expression), skipping function literals and the spawned
// call of a go statement, which do not run under the held set.
func lockEvents(pkg *Package, n ast.Node) []lockEvent {
	var evs []lockEvent
	lockCall := func(call *ast.CallExpr, deferred bool) bool {
		recv, method, ok := syncLockCall(pkg, call)
		if ok {
			evs = append(evs, lockEvent{obj: mutexIdent(pkg, recv), key: types.ExprString(recv),
				pos: call.Pos(), method: method, deferred: deferred})
		}
		return ok
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			for _, arg := range x.Call.Args {
				evs = append(evs, lockEvents(pkg, arg)...)
			}
			return false
		case *ast.DeferStmt:
			// Only a deferred lock call itself is modeled; a deferred
			// locking callee runs at exit, outside this function's order.
			lockCall(x.Call, true)
			return false
		case *ast.CallExpr:
			if lockCall(x, false) {
				return true
			}
			if fn := staticCallee(pkg.Info, x); fn != nil {
				evs = append(evs, lockEvent{callee: fn, pos: x.Pos()})
			}
		}
		return true
	})
	return evs
}

// lockBody is one function body's CFG with the lock events of each block
// statement and each block condition.
type lockBody struct {
	g      *cfg.Graph
	events map[ast.Node][]lockEvent
}

// newLockBody returns nil for a body without a sync lock call: with
// nothing ever held, neither check has anything to find there.
func newLockBody(pkg *Package, body *ast.BlockStmt) *lockBody {
	locks := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && !locks {
			_, _, locks = syncLockCall(pkg, call)
		}
		return !locks
	})
	if !locks {
		return nil
	}
	lb := &lockBody{g: cfg.Build(body), events: make(map[ast.Node][]lockEvent)}
	for _, b := range lb.g.Blocks {
		for _, n := range blockNodes(b) {
			lb.events[n] = lockEvents(pkg, n)
		}
	}
	return lb
}

// blockNodes returns b's statements followed by its condition, the order
// in which their events run.
func blockNodes(b *cfg.Block) []ast.Node {
	nodes := make([]ast.Node, 0, len(b.Stmts)+1)
	for _, s := range b.Stmts {
		nodes = append(nodes, s)
	}
	if b.Cond != nil {
		nodes = append(nodes, b.Cond)
	}
	return nodes
}

// analyzeBody runs the may-held dataflow over one function body, then
// records acquisition-order edges from each block's fixpoint state. A
// deferred unlock keeps its lock held here: it releases only at exit.
func (lo *lockOrder) analyzeBody(pkg *Package, fnName string, body *ast.BlockStmt) {
	lb := newLockBody(pkg, body)
	if lb == nil {
		return
	}
	apply := func(b *cfg.Block, in map[types.Object]bool, record bool) map[types.Object]bool {
		out := make(map[types.Object]bool, len(in))
		for o := range in {
			out[o] = true
		}
		for _, n := range blockNodes(b) {
			for _, ev := range lb.events[n] {
				switch {
				case ev.deferred || (ev.callee == nil && ev.obj == nil):
				case ev.callee != nil:
					if !record || len(out) == 0 {
						continue
					}
					for to, witness := range lo.locksetOf(ev.callee, pkg) {
						for from := range out {
							if from != to { // a call-edge self-loop is a helper on another instance
								lo.addEdge(pkg, from, to, ev.pos,
									fmt.Sprintf("via call to %s (locks at %s)", ev.callee.Name(), pkg.Fset.Position(witness)), fnName)
							}
						}
					}
				case ev.acquires():
					if record {
						for from := range out {
							lo.addEdge(pkg, from, ev.obj, ev.pos, "", fnName)
						}
					}
					out[ev.obj] = true
				default:
					delete(out, ev.obj)
				}
			}
		}
		return out
	}
	in := cfg.Forward(lb.g, map[types.Object]bool{},
		func(b *cfg.Block, _ int, in map[types.Object]bool) map[types.Object]bool { return apply(b, in, false) },
		joinSet[types.Object])
	for _, b := range lb.g.Blocks {
		if in[b.Index] != nil {
			apply(b, in[b.Index], true)
		}
	}
}

func (lo *lockOrder) addEdge(pkg *Package, from, to types.Object, pos token.Pos, note, fn string) {
	key := [2]types.Object{from, to}
	if _, ok := lo.edges[key]; ok {
		return
	}
	lo.edges[key] = &lockEdge{
		from: from, to: to,
		pos:  pkg.Fset.Position(pos),
		fn:   fn,
		note: note,
	}
}

// locksetOf returns the set of mutexes fn may acquire, transitively.
func (lo *lockOrder) locksetOf(fn *types.Func, ctx *Package) map[types.Object]token.Pos {
	fn = fn.Origin()
	if ls, ok := lo.locksets[fn]; ok {
		return ls
	}
	if lo.inLS[fn] {
		return nil
	}
	decl, declPkg := lo.sum.decl(fn, ctx)
	if decl == nil || decl.Body == nil {
		lo.locksets[fn] = nil
		return nil
	}
	lo.inLS[fn] = true
	ls := make(map[types.Object]token.Pos)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.CallExpr:
			if recv, method, ok := syncLockCall(declPkg, x); ok {
				if method == "Lock" || method == "RLock" {
					if obj := mutexIdent(declPkg, recv); obj != nil {
						if _, seen := ls[obj]; !seen {
							ls[obj] = x.Pos()
						}
					}
				}
				return true
			}
			if callee := staticCallee(declPkg.Info, x); callee != nil {
				for obj, pos := range lo.locksetOf(callee, declPkg) {
					if _, seen := ls[obj]; !seen {
						ls[obj] = pos
					}
				}
			}
		}
		return true
	})
	delete(lo.inLS, fn)
	lo.locksets[fn] = ls
	return ls
}

// cycles finds strongly connected components of the edge graph and
// reports one finding per nontrivial SCC (and per direct self-edge).
func (lo *lockOrder) cycles() []Finding {
	// Stable node ordering for deterministic output.
	nodeSet := make(map[types.Object]bool)
	for key := range lo.edges {
		nodeSet[key[0]] = true
		nodeSet[key[1]] = true
	}
	nodes := make([]types.Object, 0, len(nodeSet))
	for o := range nodeSet {
		nodes = append(nodes, o)
	}
	sort.Slice(nodes, func(i, j int) bool { return objName(nodes[i]) < objName(nodes[j]) })
	index := make(map[types.Object]int, len(nodes))
	for i, o := range nodes {
		index[o] = i
	}
	succs := make([][]int, len(nodes))
	for key := range lo.edges {
		succs[index[key[0]]] = append(succs[index[key[0]]], index[key[1]])
	}
	for _, s := range succs {
		sort.Ints(s)
	}

	// Tarjan's SCC.
	const unvisited = -1
	idx := make([]int, len(nodes))
	low := make([]int, len(nodes))
	onStack := make([]bool, len(nodes))
	for i := range idx {
		idx[i] = unvisited
	}
	var stack []int
	var counter int
	var sccs [][]int
	var strongconnect func(v int)
	strongconnect = func(v int) {
		idx[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succs[v] {
			if idx[w] == unvisited {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && idx[w] < low[v] {
				low[v] = idx[w]
			}
		}
		if low[v] == idx[v] {
			var comp []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, comp)
		}
	}
	for v := range nodes {
		if idx[v] == unvisited {
			strongconnect(v)
		}
	}

	var fs []Finding
	for _, comp := range sccs {
		selfEdge := len(comp) == 1 && lo.edges[[2]types.Object{nodes[comp[0]], nodes[comp[0]]}] != nil
		if len(comp) < 2 && !selfEdge {
			continue
		}
		sort.Ints(comp)
		members := make(map[int]bool, len(comp))
		for _, v := range comp {
			members[v] = true
		}
		// Collect the component's internal edges, sorted by position for a
		// stable, readable witness list.
		var compEdges []*lockEdge
		for key, e := range lo.edges {
			if members[index[key[0]]] && members[index[key[1]]] {
				compEdges = append(compEdges, e)
			}
		}
		sort.Slice(compEdges, func(i, j int) bool {
			a, b := compEdges[i], compEdges[j]
			if a.pos.Filename != b.pos.Filename {
				return a.pos.Filename < b.pos.Filename
			}
			return a.pos.Offset < b.pos.Offset
		})
		var names []string
		for _, v := range comp {
			names = append(names, objName(nodes[v]))
		}
		var witness []string
		for _, e := range compEdges {
			w := fmt.Sprintf("%s->%s in %s at %s", objName(e.from), objName(e.to), e.fn, e.pos)
			if e.note != "" {
				w += " " + e.note
			}
			witness = append(witness, w)
		}
		first := compEdges[0]
		msg := fmt.Sprintf("lock-order cycle among {%s}: %s",
			strings.Join(names, ", "), strings.Join(witness, "; "))
		if selfEdge {
			msg = fmt.Sprintf("mutex %s acquired while an instance is already held: %s",
				objName(nodes[comp[0]]), strings.Join(witness, "; "))
		}
		fs = append(fs, Finding{Pos: first.pos, Check: "lockorder", Message: msg})
	}
	SortFindings(fs)
	return fs
}

// objName renders a mutex identity for messages: Type.field for field
// mutexes, plain name otherwise.
func objName(o types.Object) string {
	if v, ok := o.(*types.Var); ok && v.IsField() {
		// Walk the package scope for the struct type declaring this field.
		if v.Pkg() != nil {
			scope := v.Pkg().Scope()
			for _, tn := range scope.Names() {
				obj, ok := scope.Lookup(tn).(*types.TypeName)
				if !ok {
					continue
				}
				st, ok := obj.Type().Underlying().(*types.Struct)
				if !ok {
					continue
				}
				for i := 0; i < st.NumFields(); i++ {
					if st.Field(i) == v {
						return obj.Name() + "." + v.Name()
					}
				}
			}
		}
	}
	return o.Name()
}
