package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CancelPoll enforces the slicing package's cooperative-cancellation
// contract: every loop that traverses shards or dependency chains —
// anything whose per-iteration work is proportional to the trace, not
// to a fixed constant — must observe Options.Done. A traversal loop
// that never polls cancellation turns WithCancel/deadline slicing into
// a fiction: the caller's Done fires and the slicer keeps burning
// through millions of chunk rows anyway (the gap forward slicing's old
// merge phase shipped with).
//
// Heuristic, scoped to packages named "slicing" and non-test files: a
// loop "traverses" if its body (excluding nested func literals, which
// are their own analysis unit) calls a DepsOf/DepsOfHinted method or
// ranges over []ddg.Dep values. The enclosing function-like body must
// contain a cancellation observation: a doneFired(...) call, a read of
// a done/Done atomic (.Load() on an expression containing "done"), or
// a <-Done receive. The check is per enclosing function, not per loop
// nest, so a masked poll (donePollMask) hoisted out of the innermost
// loop still counts.
var CancelPoll = &Analyzer{
	Name: "cancelpoll",
	Doc:  "requires shard/chain traversal loops in internal/slicing to poll Options.Done cancellation",
	Run:  runCancelPoll,
}

func runCancelPoll(pass *Pass) {
	if pass.Pkg == nil || pass.Pkg.Name() != "slicing" {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.FuncDecl:
				body = n.Body
			case *ast.FuncLit:
				body = n.Body
			default:
				return true
			}
			if body == nil || pass.IsTestFile(body.Pos()) {
				return true
			}
			cp := &cancelPoll{pass: pass}
			cp.checkBody(body)
			return true
		})
	}
}

type cancelPoll struct {
	pass *Pass
}

// checkBody flags traversal loops in one function-like body that lacks
// any cancellation observation.
func (cp *cancelPoll) checkBody(body *ast.BlockStmt) {
	if cp.observesCancel(body) {
		return
	}
	inBody(body, func(n ast.Node) bool {
		var loopBody *ast.BlockStmt
		var pos = n.Pos()
		switch n := n.(type) {
		case *ast.ForStmt:
			loopBody = n.Body
		case *ast.RangeStmt:
			loopBody = n.Body
			if cp.traversalRange(n) {
				cp.pass.Reportf(pos, "traversal loop does not poll cancellation; check Options.Done (doneFired or a done flag) each iteration")
				return true
			}
		default:
			return true
		}
		if cp.callsTraversal(loopBody) {
			cp.pass.Reportf(pos, "traversal loop does not poll cancellation; check Options.Done (doneFired or a done flag) each iteration")
		}
		return true
	})
}

// observesCancel reports whether the body (excluding nested func
// literals) reads cancellation state in any recognized form.
func (cp *cancelPoll) observesCancel(body *ast.BlockStmt) bool {
	found := false
	inBody(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				if strings.EqualFold(fun.Name, "donefired") {
					found = true
				}
			case *ast.SelectorExpr:
				name := fun.Sel.Name
				if strings.EqualFold(name, "donefired") {
					found = true
				}
				if name == "Load" && strings.Contains(strings.ToLower(exprString(fun.X)), "done") {
					found = true
				}
			}
		case *ast.UnaryExpr:
			// <-opts.Done / <-done
			if n.Op.String() == "<-" && strings.Contains(strings.ToLower(exprString(n.X)), "done") {
				found = true
			}
		}
		return true
	})
	return found
}

// traversalRange reports ranges over dependency data: []ddg.Dep, or a
// map whose values are []ddg.Dep.
func (cp *cancelPoll) traversalRange(n *ast.RangeStmt) bool {
	t := cp.pass.TypesInfo.Types[n.X].Type
	if t == nil {
		return false
	}
	return isDepSlice(t) || isDepValuedMap(t)
}

func isDepSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	return isPkgType(s.Elem(), "ddg", "Dep")
}

func isDepValuedMap(t types.Type) bool {
	m, ok := t.Underlying().(*types.Map)
	if !ok {
		return false
	}
	return isDepSlice(m.Elem())
}

// callsTraversal reports whether the loop body (excluding nested func
// literals) calls a chain-walking source method.
func (cp *cancelPoll) callsTraversal(body *ast.BlockStmt) bool {
	found := false
	inBody(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "DepsOf", "DepsOfHinted":
				found = true
			}
		}
		return true
	})
	return found
}

// inBody walks a block's statements, skipping nested func literals
// (they are analyzed as their own bodies).
func inBody(body *ast.BlockStmt, fn func(ast.Node) bool) {
	for _, s := range body.List {
		ast.Inspect(s, func(n ast.Node) bool {
			if n == nil {
				return true
			}
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			return fn(n)
		})
	}
}
