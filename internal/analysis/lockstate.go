package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// heldSet is the set of mutexes proven held at a program point, keyed
// by the flattened lock expression ("m.mu", "sess.mu").
type heldSet map[string]bool

func (h heldSet) clone() heldSet {
	c := make(heldSet, len(h))
	for k := range h {
		c[k] = true
	}
	return c
}

// keys returns the held locks sorted, for deterministic messages.
func (h heldSet) keys() []string {
	out := make([]string, 0, len(h))
	for k := range h {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (h heldSet) String() string { return strings.Join(h.keys(), ", ") }

// setTo replaces h's contents with src.
func (h heldSet) setTo(src heldSet) {
	for k := range h {
		delete(h, k)
	}
	for k := range src {
		h[k] = true
	}
}

// intersectSets is the must-hold join: a lock counts as held after a
// branch point only if every arriving path holds it.
func intersectSets(sets []heldSet) heldSet {
	if len(sets) == 0 {
		return heldSet{}
	}
	out := sets[0].clone()
	for _, s := range sets[1:] {
		for k := range out {
			if !s[k] {
				delete(out, k)
			}
		}
	}
	return out
}

// breakCtx collects the held sets at break statements targeting one
// enclosing loop/switch/select, so the post-statement state can join
// them (the "break while holding the lock" admission pattern).
type breakCtx struct {
	isLoop bool
	snaps  []heldSet
}

// lockWalker runs a must-hold lock analysis over one function body.
// visit receives, with the locks held on entry to each:
//   - every atomic statement (assignments, sends, calls, returns, …)
//   - every structural statement's header expression (if/for/switch
//     conditions, range operands)
//   - each SelectStmt node itself (bodies are then walked per clause)
//
// Function literals encountered anywhere are walked afterwards with an
// empty held set: closures run on their own goroutine or at an unknown
// later time, so the creating function's locks are not assumed.
type lockWalker struct {
	pkg      *Package
	visit    func(n ast.Node, held heldSet)
	funcLits []*ast.FuncLit
}

// WalkHeld applies the must-hold analysis to fn, seeding the held set
// from any `ew:holds` directives on its doc comment. Function literals
// inside the body are walked afterwards with an empty held set.
func WalkHeld(pkg *Package, fn *ast.FuncDecl, visit func(n ast.Node, held heldSet)) {
	if fn.Body == nil {
		return
	}
	walkHeldBody(pkg, fn.Body, HeldOnEntry(fn), true, visit)
}

// walkHeldBody is WalkHeld over an arbitrary body with an explicit
// held-on-entry seed. When walkLits is false, function literals are
// not walked at all — interprocedural clients (lockorder) visit each
// literal as its own call-graph node instead, so a literal's
// acquisitions attach to the literal, never to its creator.
func walkHeldBody(pkg *Package, body *ast.BlockStmt, seed []string, walkLits bool, visit func(n ast.Node, held heldSet)) {
	w := &lockWalker{pkg: pkg, visit: visit}
	held := heldSet{}
	for _, key := range seed {
		held[key] = true
	}
	w.block(body.List, held, nil)
	if !walkLits {
		return
	}
	for len(w.funcLits) > 0 {
		lit := w.funcLits[0]
		w.funcLits = w.funcLits[1:]
		w.block(lit.Body.List, heldSet{}, nil)
	}
}

// block walks stmts sequentially, mutating held in place. It reports
// whether the block terminates (return/break/continue on every path).
func (w *lockWalker) block(stmts []ast.Stmt, held heldSet, ctxs []*breakCtx) bool {
	for _, s := range stmts {
		if w.stmt(s, held, ctxs) {
			return true
		}
	}
	return false
}

// atomic reports a leaf statement to the analyzer and queues any
// function literals it contains for a separate walk.
func (w *lockWalker) atomic(n ast.Node, held heldSet) {
	if n == nil {
		return
	}
	w.visit(n, held)
	w.queueFuncLits(n)
}

func (w *lockWalker) queueFuncLits(n ast.Node) {
	ast.Inspect(n, func(c ast.Node) bool {
		if lit, ok := c.(*ast.FuncLit); ok {
			w.funcLits = append(w.funcLits, lit)
			return false // nested literals queue when their parent is walked
		}
		return true
	})
}

func (w *lockWalker) header(e ast.Expr, held heldSet) {
	if e == nil {
		return
	}
	w.visit(e, held)
	w.queueFuncLits(e)
}

// stmt processes one statement, returning whether control cannot fall
// through to the next statement in the block.
func (w *lockWalker) stmt(s ast.Stmt, held heldSet, ctxs []*breakCtx) bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.atomic(s, held)
		w.applyLockEffect(s.X, held)
		return false

	case *ast.DeferStmt:
		// `defer mu.Unlock()` keeps the lock held to the end of the
		// function as far as every later statement is concerned, which is
		// exactly what leaving the key in place models.
		if _, op, ok := w.lockCall(s.Call); ok && (op == "Unlock" || op == "RUnlock") {
			return false
		}
		w.atomic(s, held)
		return false

	case *ast.ReturnStmt:
		w.atomic(s, held)
		return true

	case *ast.BranchStmt:
		w.recordBranch(s, held, ctxs)
		return true

	case *ast.BlockStmt:
		return w.block(s.List, held, ctxs)

	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, held, ctxs)

	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, held, ctxs)
		}
		w.header(s.Cond, held)
		var arrivals []heldSet
		thenHeld := held.clone()
		if !w.block(s.Body.List, thenHeld, ctxs) {
			arrivals = append(arrivals, thenHeld)
		}
		if s.Else != nil {
			elseHeld := held.clone()
			if !w.stmt(s.Else, elseHeld, ctxs) {
				arrivals = append(arrivals, elseHeld)
			}
		} else {
			arrivals = append(arrivals, held.clone())
		}
		if len(arrivals) == 0 {
			return true
		}
		held.setTo(intersectSets(arrivals))
		return false

	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, held, ctxs)
		}
		w.header(s.Cond, held)
		ctx := &breakCtx{isLoop: true}
		bodyHeld := held.clone()
		if !w.block(s.Body.List, bodyHeld, append(ctxs, ctx)) && s.Post != nil {
			w.stmt(s.Post, bodyHeld, ctxs)
		}
		arrivals := ctx.snaps
		if s.Cond != nil {
			// The condition can fail before the first iteration.
			arrivals = append(arrivals, held.clone())
		}
		if len(arrivals) == 0 {
			return true // infinite loop with no break: nothing falls through
		}
		held.setTo(intersectSets(arrivals))
		return false

	case *ast.RangeStmt:
		w.header(s.X, held)
		ctx := &breakCtx{isLoop: true}
		bodyHeld := held.clone()
		w.block(s.Body.List, bodyHeld, append(ctxs, ctx))
		arrivals := append(ctx.snaps, held.clone()) // empty ranges fall through
		held.setTo(intersectSets(arrivals))
		return false

	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held, ctxs)
		}
		w.header(s.Tag, held)
		return w.switchBody(s.Body, held, ctxs, hasDefaultClause(s.Body))

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held, ctxs)
		}
		return w.switchBody(s.Body, held, ctxs, hasDefaultClause(s.Body))

	case *ast.SelectStmt:
		w.visit(s, held)
		ctx := &breakCtx{}
		var arrivals []heldSet
		for _, c := range s.Body.List {
			clause := c.(*ast.CommClause)
			cHeld := held.clone()
			if !w.block(clause.Body, cHeld, append(ctxs, ctx)) {
				arrivals = append(arrivals, cHeld)
			}
		}
		arrivals = append(arrivals, ctx.snaps...)
		if len(arrivals) == 0 {
			return true
		}
		held.setTo(intersectSets(arrivals))
		return false

	case *ast.GoStmt:
		w.atomic(s, held)
		return false

	case *ast.EmptyStmt:
		return false

	default: // assignments, declarations, inc/dec, sends, …
		w.atomic(s, held)
		return false
	}
}

func (w *lockWalker) switchBody(body *ast.BlockStmt, held heldSet, ctxs []*breakCtx, hasDefault bool) bool {
	ctx := &breakCtx{}
	var arrivals []heldSet
	for _, c := range body.List {
		clause := c.(*ast.CaseClause)
		for _, e := range clause.List {
			w.header(e, held)
		}
		cHeld := held.clone()
		if !w.block(clause.Body, cHeld, append(ctxs, ctx)) {
			arrivals = append(arrivals, cHeld)
		}
	}
	arrivals = append(arrivals, ctx.snaps...)
	if !hasDefault {
		arrivals = append(arrivals, held.clone()) // no case may match
	}
	if len(arrivals) == 0 {
		return true
	}
	held.setTo(intersectSets(arrivals))
	return false
}

func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		switch clause := c.(type) {
		case *ast.CaseClause: // switch / type switch
			if clause.List == nil {
				return true
			}
		case *ast.CommClause: // select
			if clause.Comm == nil {
				return true
			}
		}
	}
	return false
}

// recordBranch snapshots held at break/continue so loop and switch
// exits can join it ("break // holds m.mu" in serve's shard.open).
func (w *lockWalker) recordBranch(s *ast.BranchStmt, held heldSet, ctxs []*breakCtx) {
	wantLoop := s.Tok.String() == "continue"
	for i := len(ctxs) - 1; i >= 0; i-- {
		if wantLoop && !ctxs[i].isLoop {
			continue
		}
		if s.Tok.String() == "break" {
			ctxs[i].snaps = append(ctxs[i].snaps, held.clone())
		}
		return
	}
}

// lockCall decodes a call as (<expr>.Lock|RLock|Unlock|RUnlock)() on a
// sync.Mutex or sync.RWMutex, returning the flattened lock key and the
// operation name.
func (w *lockWalker) lockCall(call *ast.CallExpr) (key, op string, ok bool) {
	return lockCallInfo(w.pkg, call)
}

// lockCallInfo is the package-level form of lockCall, shared with the
// lockorder analyzer.
func lockCallInfo(pkg *Package, call *ast.CallExpr) (key, op string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	op = sel.Sel.Name
	switch op {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	selection := pkg.Info.Selections[sel]
	if selection == nil || !isSyncMutex(selection.Recv()) {
		return "", "", false
	}
	key = exprKey(sel.X)
	if key == "" {
		return "", "", false
	}
	return key, op, true
}

func (w *lockWalker) applyLockEffect(e ast.Expr, held heldSet) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return
	}
	key, op, ok := w.lockCall(call)
	if !ok {
		return
	}
	switch op {
	case "Lock", "RLock":
		held[key] = true
	case "Unlock", "RUnlock":
		delete(held, key)
	}
}

// isSyncMutex reports whether t (possibly behind a pointer) is
// sync.Mutex or sync.RWMutex.
func isSyncMutex(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// exprKey flattens a lock or receiver expression to a stable name:
// idents and selector chains only ("m.mu"); anything else (calls,
// indexes) yields "".
func exprKey(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprKey(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprKey(e.X)
	case *ast.StarExpr:
		return exprKey(e.X)
	}
	return ""
}

// inspectNoFuncLit walks n without descending into function literals
// (closure bodies are analyzed separately with their own lock state).
func inspectNoFuncLit(n ast.Node, f func(ast.Node) bool) {
	ast.Inspect(n, func(c ast.Node) bool {
		if _, ok := c.(*ast.FuncLit); ok {
			return false
		}
		return f(c)
	})
}
