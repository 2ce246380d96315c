// Package cfg builds per-function control-flow graphs over go/ast for
// jbsvet's path-sensitive checks (closeflow, lockhygiene, lockorder —
// see docs/STATIC_ANALYSIS.md) and solves dataflow problems over them
// (Forward, the one fixpoint the checks share). The graph is
// deliberately small: basic blocks of statements, explicit edges for
// branches, loops, switches, selects, labeled break/continue/goto, and a
// single synthetic exit block that every return reaches. A panic terminates its block with no
// successor — the checks reason about ordinary exits, and Go's runtime
// unwinds deferred calls on panic anyway.
//
// The builder is pure syntax (go/ast only, no go/types): type-sensitive
// interpretation of the statements inside a block — which calls acquire
// a lease, which branch condition refines an error — is the analysis
// layer's job. Function literals are not inlined; each FuncLit body is
// its own graph, built by the caller when it wants one.
package cfg

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// A Block is one basic block: statements that execute in order, then a
// transfer of control along one of Succs.
type Block struct {
	// Index is the block's position in Graph.Blocks (stable, 0 = entry).
	Index int
	// Stmts are the statements executed in order. Control statements
	// (if/for/switch/...) never appear here — the builder splits them
	// into blocks and edges — but their init statements, conditions
	// (see Cond), and leaf statements do.
	Stmts []ast.Stmt
	// Cond, when non-nil, is the boolean expression evaluated after
	// Stmts; Succs[0] is then the true edge and Succs[1] the false edge.
	// Blocks without Cond transfer unconditionally.
	Cond ast.Expr
	// Succs are the possible next blocks. Empty for the exit block and
	// for blocks that terminate (panic, infinite transfer elsewhere).
	Succs []*Block
}

// A Graph is one function body's control-flow graph.
type Graph struct {
	// Blocks lists every block, entry first. Unreachable blocks are
	// pruned.
	Blocks []*Block
	// Entry is where execution starts.
	Entry *Block
	// Exit is the single synthetic exit; every return statement's block
	// has an edge here, as does the fall-off-the-end block.
	Exit *Block
}

// Build constructs the CFG of one function body. A nil body (a function
// declared without one, e.g. assembly or external linkage) yields a
// graph with only entry and exit.
func Build(body *ast.BlockStmt) *Graph {
	b := &builder{
		labels: make(map[string]*labelBlocks),
	}
	b.exit = b.newBlock()
	entry := b.newBlock()
	b.cur = entry
	if body != nil {
		b.stmts(body.List)
	}
	b.jump(b.exit)
	b.patchGotos()

	g := &Graph{Entry: entry, Exit: b.exit}
	g.Blocks = reachable(entry, b.exit)
	for i, blk := range g.Blocks {
		blk.Index = i
	}
	return g
}

// labelBlocks tracks the targets a label can transfer to.
type labelBlocks struct {
	// target is the labeled statement's own block (goto destination).
	target *Block
	// brk and cont are set while the labeled loop/switch is being built.
	brk, cont *Block
}

type pendingGoto struct {
	from  *Block
	label string
}

type builder struct {
	blocks []*Block
	cur    *Block // nil while the current path has terminated
	exit   *Block

	// breakTo / continueTo are the innermost enclosing targets.
	breakTo    []*Block
	continueTo []*Block

	labels map[string]*labelBlocks
	gotos  []pendingGoto

	// nextLabel holds a label whose statement is about to be built, so
	// its loop can register labeled break/continue targets.
	nextLabel string
}

func (b *builder) newBlock() *Block {
	blk := &Block{}
	b.blocks = append(b.blocks, blk)
	return blk
}

// startBlock begins a new block and makes it current.
func (b *builder) startBlock() *Block {
	blk := b.newBlock()
	b.cur = blk
	return blk
}

// jump adds an edge from the current block to dst and terminates the
// current path. No-op when the path already terminated.
func (b *builder) jump(dst *Block) {
	if b.cur == nil {
		return
	}
	b.cur.Succs = append(b.cur.Succs, dst)
	b.cur = nil
}

// edge adds an edge from the current block to dst without terminating.
func (b *builder) edge(dst *Block) {
	if b.cur != nil {
		b.cur.Succs = append(b.cur.Succs, dst)
	}
}

// add appends a leaf statement to the current block, opening a fresh
// (unreachable) block if the path terminated — dead code still gets
// blocks so the graph covers every statement.
func (b *builder) add(s ast.Stmt) {
	if b.cur == nil {
		b.startBlock()
	}
	b.cur.Stmts = append(b.cur.Stmts, s)
}

func (b *builder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.BlockStmt:
		b.stmts(st.List)

	case *ast.IfStmt:
		b.ifStmt(st)

	case *ast.ForStmt:
		b.forStmt(st, b.takeLabel())

	case *ast.RangeStmt:
		b.rangeStmt(st, b.takeLabel())

	case *ast.SwitchStmt:
		b.switchStmt(st, b.takeLabel())

	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(st, b.takeLabel())

	case *ast.SelectStmt:
		b.selectStmt(st, b.takeLabel())

	case *ast.LabeledStmt:
		b.labeledStmt(st)

	case *ast.ReturnStmt:
		b.add(st)
		b.jump(b.exit)

	case *ast.BranchStmt:
		b.branchStmt(st)

	case *ast.ExprStmt:
		b.add(st)
		if call, ok := st.X.(*ast.CallExpr); ok && isPanic(call) {
			b.cur = nil // panic: no ordinary successor
		}

	case *ast.DeferStmt, *ast.GoStmt, *ast.SendStmt, *ast.AssignStmt,
		*ast.DeclStmt, *ast.IncDecStmt, *ast.EmptyStmt:
		b.add(st)

	case nil:
		// nothing

	default:
		// Unknown statement kinds flow through as leaves.
		b.add(st)
	}
}

// takeLabel consumes the label registered for the statement being built.
func (b *builder) takeLabel() string {
	l := b.nextLabel
	b.nextLabel = ""
	return l
}

func (b *builder) labeledStmt(st *ast.LabeledStmt) {
	name := st.Label.Name
	lb := b.labels[name]
	if lb == nil {
		lb = &labelBlocks{}
		b.labels[name] = lb
	}
	// The label's target is a fresh block so gotos land before the
	// statement itself.
	target := b.newBlock()
	b.jump(target)
	b.cur = target
	lb.target = target
	b.nextLabel = name
	b.stmt(st.Stmt)
	b.nextLabel = ""
}

func (b *builder) branchStmt(st *ast.BranchStmt) {
	b.add(st)
	switch st.Tok {
	case token.BREAK:
		if st.Label != nil {
			if lb := b.labels[st.Label.Name]; lb != nil && lb.brk != nil {
				b.jump(lb.brk)
				return
			}
		}
		if n := len(b.breakTo); n > 0 {
			b.jump(b.breakTo[n-1])
			return
		}
		b.cur = nil
	case token.CONTINUE:
		if st.Label != nil {
			if lb := b.labels[st.Label.Name]; lb != nil && lb.cont != nil {
				b.jump(lb.cont)
				return
			}
		}
		if n := len(b.continueTo); n > 0 {
			b.jump(b.continueTo[n-1])
			return
		}
		b.cur = nil
	case token.GOTO:
		if st.Label != nil {
			b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: st.Label.Name})
		}
		b.cur = nil
	case token.FALLTHROUGH:
		// Leave the path open: caseClauses sees the trailing fallthrough
		// and jumps to the next case block.
	}
}

func (b *builder) ifStmt(st *ast.IfStmt) {
	if st.Init != nil {
		b.stmt(st.Init)
	}
	if b.cur == nil {
		b.startBlock()
	}
	condBlk := b.cur
	condBlk.Cond = st.Cond

	thenBlk := b.newBlock()
	afterBlk := b.newBlock()
	condBlk.Succs = append(condBlk.Succs, thenBlk) // true edge

	b.cur = thenBlk
	b.stmts(st.Body.List)
	b.jump(afterBlk)

	if st.Else != nil {
		elseBlk := b.newBlock()
		condBlk.Succs = append(condBlk.Succs, elseBlk) // false edge
		b.cur = elseBlk
		b.stmt(st.Else)
		b.jump(afterBlk)
	} else {
		condBlk.Succs = append(condBlk.Succs, afterBlk) // false edge
	}
	b.cur = afterBlk
}

func (b *builder) forStmt(st *ast.ForStmt, label string) {
	if st.Init != nil {
		b.stmt(st.Init)
	}
	head := b.newBlock()
	b.jump(head)
	b.cur = head

	body := b.newBlock()
	after := b.newBlock()
	// post runs between the body and the head; without a post statement
	// continue targets the head directly.
	post := head
	if st.Post != nil {
		post = b.newBlock()
	}

	if st.Cond != nil {
		head.Cond = st.Cond
		head.Succs = append(head.Succs, body, after)
	} else {
		head.Succs = append(head.Succs, body)
	}

	if label != "" {
		lb := b.labels[label]
		lb.brk, lb.cont = after, post
		defer func() { lb.brk, lb.cont = nil, nil }()
	}
	b.breakTo = append(b.breakTo, after)
	b.continueTo = append(b.continueTo, post)
	b.cur = body
	b.stmts(st.Body.List)
	b.jump(post)
	b.breakTo = b.breakTo[:len(b.breakTo)-1]
	b.continueTo = b.continueTo[:len(b.continueTo)-1]

	if st.Post != nil {
		b.cur = post
		b.stmt(st.Post)
		b.jump(head)
	}
	b.cur = after
	// A `for { }` with no cond and no break leaves after unreachable;
	// pruning drops it.
}

func (b *builder) rangeStmt(st *ast.RangeStmt, label string) {
	// The range header evaluates the operand and assigns the iteration
	// variables; model it as a head block holding the statement itself.
	head := b.newBlock()
	b.jump(head)
	head.Stmts = append(head.Stmts, st)

	body := b.newBlock()
	after := b.newBlock()
	head.Succs = append(head.Succs, body, after)

	if label != "" {
		lb := b.labels[label]
		lb.brk, lb.cont = after, head
		defer func() { lb.brk, lb.cont = nil, nil }()
	}
	b.breakTo = append(b.breakTo, after)
	b.continueTo = append(b.continueTo, head)
	b.cur = body
	b.stmts(st.Body.List)
	b.jump(head)
	b.breakTo = b.breakTo[:len(b.breakTo)-1]
	b.continueTo = b.continueTo[:len(b.continueTo)-1]

	b.cur = after
}

func (b *builder) switchStmt(st *ast.SwitchStmt, label string) {
	if st.Init != nil {
		b.stmt(st.Init)
	}
	if st.Tag != nil {
		// The tag is an evaluated expression; keep it visible as a
		// synthetic statement so analyses scan it.
		b.add(&ast.ExprStmt{X: st.Tag})
	}
	b.caseClauses(st.Body, label, true)
}

func (b *builder) typeSwitchStmt(st *ast.TypeSwitchStmt, label string) {
	if st.Init != nil {
		b.stmt(st.Init)
	}
	b.add(st.Assign)
	b.caseClauses(st.Body, label, false)
}

// caseClauses wires a switch body: the dispatch block branches to every
// case (and to after when no default exists); fallthrough chains case
// bodies.
func (b *builder) caseClauses(body *ast.BlockStmt, label string, allowFallthrough bool) {
	if b.cur == nil {
		b.startBlock()
	}
	dispatch := b.cur
	b.cur = nil
	after := b.newBlock()

	if label != "" {
		lb := b.labels[label]
		lb.brk = after
		defer func() { lb.brk = nil }()
	}
	b.breakTo = append(b.breakTo, after)

	var caseBlocks []*Block
	var clauses []*ast.CaseClause
	hasDefault := false
	for _, cs := range body.List {
		cc, ok := cs.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		blk := b.newBlock()
		dispatch.Succs = append(dispatch.Succs, blk)
		caseBlocks = append(caseBlocks, blk)
		clauses = append(clauses, cc)
	}
	if !hasDefault {
		dispatch.Succs = append(dispatch.Succs, after)
	}
	for i, cc := range clauses {
		b.cur = caseBlocks[i]
		// Case expressions are evaluated at dispatch; attach them to the
		// case block so analyses scan them exactly once.
		for _, e := range cc.List {
			b.cur.Stmts = append(b.cur.Stmts, &ast.ExprStmt{X: e})
		}
		b.stmts(cc.Body)
		if allowFallthrough && b.cur != nil && endsInFallthrough(cc.Body) && i+1 < len(caseBlocks) {
			b.jump(caseBlocks[i+1])
			continue
		}
		b.jump(after)
	}
	b.breakTo = b.breakTo[:len(b.breakTo)-1]
	b.cur = after
}

func (b *builder) selectStmt(st *ast.SelectStmt, label string) {
	if b.cur == nil {
		b.startBlock()
	}
	dispatch := b.cur
	b.cur = nil
	after := b.newBlock()

	if label != "" {
		lb := b.labels[label]
		lb.brk = after
		defer func() { lb.brk = nil }()
	}
	b.breakTo = append(b.breakTo, after)
	for _, cs := range st.Body.List {
		cc, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock()
		dispatch.Succs = append(dispatch.Succs, blk)
		b.cur = blk
		if cc.Comm != nil {
			b.stmt(cc.Comm)
		}
		b.stmts(cc.Body)
		b.jump(after)
	}
	b.breakTo = b.breakTo[:len(b.breakTo)-1]
	// A select with no clauses blocks forever: after has no in-edges and
	// pruning drops it, but building into it keeps trailing dead code in
	// the graph.
	b.cur = after
}

// endsInFallthrough reports whether a case body's last statement is
// fallthrough (possibly labeled).
func endsInFallthrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	s := body[len(body)-1]
	for {
		if ls, ok := s.(*ast.LabeledStmt); ok {
			s = ls.Stmt
			continue
		}
		break
	}
	bs, ok := s.(*ast.BranchStmt)
	return ok && bs.Tok == token.FALLTHROUGH
}

func (b *builder) patchGotos() {
	for _, g := range b.gotos {
		if g.from == nil {
			continue
		}
		if lb := b.labels[g.label]; lb != nil && lb.target != nil {
			g.from.Succs = append(g.from.Succs, lb.target)
		}
	}
}

// isPanic reports whether call is the builtin panic. Syntactic: a local
// function named panic would shadow it, which the repo style forbids.
func isPanic(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// reachable returns entry's reachable blocks in a stable order (entry
// first, exit last when reachable), pruning everything else.
func reachable(entry, exit *Block) []*Block {
	seen := make(map[*Block]bool)
	var order []*Block
	var walk func(*Block)
	walk = func(blk *Block) {
		if seen[blk] {
			return
		}
		seen[blk] = true
		order = append(order, blk)
		for _, s := range blk.Succs {
			walk(s)
		}
	}
	walk(entry)
	if !seen[exit] {
		order = append(order, exit) // keep the exit addressable even if unreachable
	}
	return order
}

// Preds computes the predecessor lists of g's blocks, indexed like
// g.Blocks. Analyses that join states at block entry want this once.
func (g *Graph) Preds() [][]*Block {
	preds := make([][]*Block, len(g.Blocks))
	for _, blk := range g.Blocks {
		for _, s := range blk.Succs {
			preds[s.Index] = append(preds[s.Index], blk)
		}
	}
	return preds
}

// Forward solves a forward dataflow problem over g and returns the state
// entering each block, indexed like g.Blocks. entry is the state entering
// g.Entry. flow computes the state leaving b along b.Succs[succ] from the
// state entering b — per edge, so a branch can refine what it knows — and
// must not modify in. join merges a state arriving along an edge into the
// state already entering that block and reports whether it grew; join
// picks may-reach (union) or must-reach (intersection) facts.
//
// The first state to reach a block is taken as is and always counts as a
// change, so every reachable block is visited even when what reaches it
// is empty: propagation is change-driven, and a block whose first
// computed out-state is empty must still enqueue its successors, or an
// acquire below an early branch would go unanalyzed.
func Forward[S any](g *Graph, entry S, flow func(b *Block, succ int, in S) S, join func(dst, src S) (S, bool)) []S {
	in := make([]S, len(g.Blocks))
	reached := make([]bool, len(g.Blocks))
	queued := make([]bool, len(g.Blocks))
	in[g.Entry.Index], reached[g.Entry.Index] = entry, true
	work := []*Block{g.Entry}
	queued[g.Entry.Index] = true
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		queued[b.Index] = false
		for si, s := range b.Succs {
			out := flow(b, si, in[b.Index])
			changed := true
			if reached[s.Index] {
				in[s.Index], changed = join(in[s.Index], out)
			} else {
				in[s.Index], reached[s.Index] = out, true
			}
			if changed && !queued[s.Index] {
				queued[s.Index] = true
				work = append(work, s)
			}
		}
	}
	return in
}

// String renders the graph for debugging and golden tests: one line per
// block with its statement kinds and successor indices.
func (g *Graph) String() string {
	var sb strings.Builder
	for _, blk := range g.Blocks {
		fmt.Fprintf(&sb, "b%d:", blk.Index)
		for _, s := range blk.Stmts {
			fmt.Fprintf(&sb, " %s", stmtKind(s))
		}
		if blk.Cond != nil {
			sb.WriteString(" [cond]")
		}
		if len(blk.Succs) > 0 {
			fmt.Fprintf(&sb, " ->")
			for _, s := range blk.Succs {
				fmt.Fprintf(&sb, " b%d", s.Index)
			}
		}
		if blk == g.Exit {
			sb.WriteString(" (exit)")
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

func stmtKind(s ast.Stmt) string {
	name := fmt.Sprintf("%T", s)
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		name = name[i+1:]
	}
	return strings.TrimSuffix(name, "Stmt")
}
