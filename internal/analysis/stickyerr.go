package analysis

import (
	"go/ast"
	"strings"
)

// StickyErr pins the PR 7 negative-cache rule: only errors classified
// as structural damage (errors.Is(err, errDamage)) may be recorded in
// the store's negative chunk cache. Caching a transient failure — a
// short read racing an in-flight append, a temporary open error —
// makes the chunk permanently invisible to that reader even after the
// writer completes it, which is exactly the bug the transient/damage
// split was introduced to fix.
//
// Statically enforced shapes, in any package that uses the store's
// naming (putNegative, the ChunkCache type, `neg` and `cache` fields):
//
//  1. Every call to putNegative must be dominated by a damage check:
//     either the call sits in the then-branch of
//     `if errors.Is(err, errDamage)` (or the else-branch of the
//     negated test), or an earlier statement in the same block returns
//     when the error is NOT damage.
//  2. No ChunkCache method may be passed a literal nil — a nil decoded
//     chunk in the cache is a negative entry by another name, and
//     negatives are putNegative's business, where rule 1 applies.
//  3. A write into `x.neg[...]`, or `x.cache[...] = nil`, outside
//     putNegative is a hand-rolled negative entry that bypasses the
//     classification; use putNegative.
var StickyErr = &Analyzer{
	Name: "stickyerr",
	Run:  runStickyErr,
}

func runStickyErr(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			se := &stickyErr{pass: pass, fn: fd.Name.Name}
			se.block(fd.Body, false)
		}
	}
}

type stickyErr struct {
	pass *Pass
	fn   string
}

// block scans a statement list. guarded reports whether every path
// into this block established errors.Is(err, errDamage).
func (se *stickyErr) block(b *ast.BlockStmt, guarded bool) {
	g := guarded
	for _, s := range b.List {
		se.stmt(s, g)
		// An early `if !errors.Is(err, errDamage) { ... return/continue }`
		// guards everything after it in this block.
		if ifs, ok := s.(*ast.IfStmt); ok && se.negDamageCond(ifs.Cond) && terminates(ifs.Body) {
			g = true
		}
	}
}

func (se *stickyErr) stmt(s ast.Stmt, guarded bool) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		se.block(s, guarded)
	case *ast.IfStmt:
		se.block(s.Body, guarded || se.posDamageCond(s.Cond))
		switch els := s.Else.(type) {
		case *ast.BlockStmt:
			se.block(els, guarded || se.negDamageCond(s.Cond))
		case *ast.IfStmt:
			se.stmt(els, guarded)
		}
	case *ast.ForStmt:
		se.block(s.Body, guarded)
	case *ast.RangeStmt:
		se.block(s.Body, guarded)
	case *ast.SwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, cs := range cc.Body {
					se.stmt(cs, guarded)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, cs := range cc.Body {
					se.stmt(cs, guarded)
				}
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				for _, cs := range cc.Body {
					se.stmt(cs, guarded)
				}
			}
		}
	case *ast.LabeledStmt:
		se.stmt(s.Stmt, guarded)
	default:
		se.exprs(s, guarded)
	}
}

// exprs checks the calls and assignments inside one simple statement.
func (se *stickyErr) exprs(s ast.Stmt, guarded bool) {
	ast.Inspect(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			se.checkCall(n, guarded)
		case *ast.AssignStmt:
			se.checkAssign(n)
		}
		return true
	})
}

func (se *stickyErr) checkCall(call *ast.CallExpr, guarded bool) {
	if calleeName(call) == "putNegative" {
		if !guarded {
			se.pass.Reportf(call.Pos(), "putNegative called without an errors.Is(err, errDamage) guard; transient errors must not be negative-cached")
		}
		return
	}
	fn := calleeFunc(se.pass.TypesInfo, call)
	if fn == nil || !isPkgType(recvType(fn), "store", "ChunkCache") {
		return
	}
	for _, arg := range call.Args {
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok && id.Name == "nil" {
			se.pass.Reportf(call.Pos(), "ChunkCache.%s called with a nil chunk creates a negative entry outside putNegative; use putNegative so the errDamage classification applies", fn.Name())
		}
	}
}

// checkAssign flags writes into `x.neg[...]` and `x.cache[...] = nil`
// outside putNegative itself.
func (se *stickyErr) checkAssign(n *ast.AssignStmt) {
	if se.fn == "putNegative" {
		return
	}
	for i, lhs := range n.Lhs {
		ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
		if !ok {
			continue
		}
		sel, ok := ast.Unparen(ix.X).(*ast.SelectorExpr)
		if !ok {
			continue
		}
		switch sel.Sel.Name {
		case "neg":
			se.pass.Reportf(lhs.Pos(), "%s written outside putNegative bypasses the errDamage classification; call putNegative instead", exprString(ix.X))
		case "cache":
			if i < len(n.Rhs) {
				if rid, ok := ast.Unparen(n.Rhs[i]).(*ast.Ident); ok && rid.Name == "nil" {
					se.pass.Reportf(lhs.Pos(), "nil stored directly into %s bypasses the errDamage classification; call putNegative instead", exprString(ix.X))
				}
			}
		}
	}
}

// posDamageCond reports conditions that positively establish damage:
// errors.Is(err, errDamage), possibly &&-combined with others.
func (se *stickyErr) posDamageCond(cond ast.Expr) bool {
	cond = ast.Unparen(cond)
	if b, ok := cond.(*ast.BinaryExpr); ok && b.Op.String() == "&&" {
		return se.posDamageCond(b.X) || se.posDamageCond(b.Y)
	}
	return isDamageIsCall(cond)
}

// negDamageCond reports conditions of the form !errors.Is(err, errDamage).
func (se *stickyErr) negDamageCond(cond ast.Expr) bool {
	u, ok := ast.Unparen(cond).(*ast.UnaryExpr)
	if !ok || u.Op.String() != "!" {
		return false
	}
	return isDamageIsCall(ast.Unparen(u.X))
}

// isDamageIsCall matches errors.Is(_, errDamage) (second argument's
// printed form contains "errDamage" or "ErrDamage").
func isDamageIsCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Is" {
		return false
	}
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); !ok || id.Name != "errors" {
		return false
	}
	target := exprString(call.Args[1])
	return strings.Contains(target, "errDamage") || strings.Contains(target, "ErrDamage")
}

// terminates reports whether a block's last statement leaves the
// enclosing flow: return, continue, break, goto, or panic.
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// calleeName returns the bare called-function name for ident and
// selector callees.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
