package analysis

import (
	"go/ast"
	"go/types"
)

// EpochFence machine-checks the shadow.Epoch concurrency contract
// (see the type comment in internal/shadow/epoch.go): epoch-sharded
// shadow writes never cross an ownership boundary without a fence,
// and the only fence is the coordinator's dispatch/barrier pair.
// Statically that splits into three rules:
//
//   - Ownership coordination (BeginEpoch, Claim, ClaimAll, View) is
//     coordinator-only. A call on a shadow.Epoch receiver from a
//     worker context — a goroutine body or a function literal, the
//     shapes the pipeline hands its worker pool — mutates or mints
//     ownership concurrently with views that were published under the
//     old assignment.
//   - The whole-memory accessors (Get, Set, Clear, Tainted, Pages,
//     SizeWords, Range) are quiescent-only, so the same worker-context
//     restriction applies to them.
//   - A shadow.View is valid for one epoch. Storing one in a
//     package-level variable or sending it on a channel escapes the
//     epoch unconditionally; storing one into a struct field from a
//     worker context retains it past the barrier on a goroutine the
//     coordinator cannot revalidate. (Coordinator-side field caching —
//     pipeline.ensureOwners — is allowed: the coordinator re-claims
//     ownership under the cached views before every dispatch.)
//
// The worker-context test is a syntactic approximation: any function
// literal counts, because the analysis cannot see which closures a
// pool executes. A literal that provably runs on the coordinating
// goroutine can carry //scaldift:ignore epochfence with the proof as
// its reason. View.Get/Set are deliberately NOT restricted — worker
// access through an owned view is the entire point, and each access
// re-verifies ownership at runtime anyway. Test files are skipped:
// tests exercise the API from t.Run closures and deliberately broken
// shapes that the runtime ownership check already covers.
var EpochFence = &Analyzer{
	Name: "epochfence",
	Doc:  "flags shadow.Epoch ownership/quiescent calls from worker contexts and shadow.View values escaping their epoch",
	Run:  runEpochFence,
}

// epochOwnership are the coordinator-only ownership methods.
var epochOwnership = map[string]bool{
	"BeginEpoch": true, "Claim": true, "ClaimAll": true, "View": true,
}

// epochQuiescent are the whole-memory accessors legal only while no
// View is in flight.
var epochQuiescent = map[string]bool{
	"Get": true, "Set": true, "Clear": true, "Tainted": true,
	"Pages": true, "SizeWords": true, "Range": true,
}

func runEpochFence(pass *Pass) {
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ef := &epochFence{pass: pass}
		ef.walk(f, false)
	}
}

type epochFence struct {
	pass *Pass
}

// walk inspects the subtree rooted at n with the given worker-context
// flag, re-entering with worker=true at goroutine and closure
// boundaries.
func (ef *epochFence) walk(n ast.Node, worker bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if !worker {
				ef.walk(n.Call, true)
				return false
			}
		case *ast.FuncLit:
			if !worker {
				ef.walk(n.Body, true)
				return false
			}
		case *ast.CallExpr:
			ef.call(n, worker)
		case *ast.AssignStmt:
			ef.assign(n, worker)
		case *ast.SendStmt:
			if ef.isViewExpr(n.Value) {
				ef.pass.Reportf(n.Value.Pos(), "shadow.View sent on a channel escapes its epoch: the receiver has no fence ordering it against the next ownership assignment")
			}
		}
		return true
	})
}

// call flags shadow.Epoch method calls that are illegal in a worker
// context.
func (ef *epochFence) call(n *ast.CallExpr, worker bool) {
	if !worker {
		return
	}
	fn := calleeFunc(ef.pass.TypesInfo, n)
	if fn == nil || !isPkgType(recvType(fn), "shadow", "Epoch") {
		return
	}
	switch name := fn.Name(); {
	case epochOwnership[name]:
		ef.pass.Reportf(n.Pos(), "shadow.Epoch.%s called from a worker context (goroutine or closure): ownership is coordinator-only and may change only across a dispatch/barrier fence", name)
	case epochQuiescent[name]:
		ef.pass.Reportf(n.Pos(), "quiescent-only accessor shadow.Epoch.%s called from a worker context: whole-memory access is legal only while no View is in flight", name)
	}
}

// assign flags View values stored where they outlive their epoch.
func (ef *epochFence) assign(n *ast.AssignStmt, worker bool) {
	for i, lhs := range n.Lhs {
		if i >= len(n.Rhs) {
			break // x, y = f(): function results lose the view identity
		}
		if !ef.isViewExpr(n.Rhs[i]) {
			continue
		}
		switch lhs := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			obj := ef.pass.TypesInfo.Defs[lhs]
			if obj == nil {
				obj = ef.pass.TypesInfo.Uses[lhs]
			}
			if isPackageLevel(obj) {
				ef.pass.Reportf(n.Rhs[i].Pos(), "shadow.View stored in package-level variable %s outlives its epoch", lhs.Name)
			}
		case *ast.SelectorExpr, *ast.IndexExpr:
			if worker {
				ef.pass.Reportf(n.Rhs[i].Pos(), "shadow.View stored in %s from a worker context is retained past the window barrier; only the coordinator may cache views, because only it revalidates ownership before the next dispatch", exprString(lhs))
			}
		}
	}
}

// isViewExpr reports whether e's static type carries shadow.View
// identity: a View, a pointer to one, or a slice of either (append
// results included).
func (ef *epochFence) isViewExpr(e ast.Expr) bool {
	tv, ok := ef.pass.TypesInfo.Types[ast.Unparen(e)]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if s, ok := t.Underlying().(*types.Slice); ok {
		t = s.Elem()
	}
	return isPkgType(t, "shadow", "View")
}
