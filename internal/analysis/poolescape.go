package analysis

import (
	"go/ast"
	"go/types"
)

// PoolEscape generalizes the PR 3 pooled-batch retention bug: a value
// fetched from a sync.Pool, or a pointer into a pool-recycled type
// (vm.Batch, vm.Event, or any type tagged //scaldift:pooled), must
// not be stored anywhere that outlives the processing callback — a
// struct field, a package-level variable, a field-rooted container,
// or a channel. Once the batch returns to the pool, such a pointer
// silently watches its memory be overwritten by an unrelated event
// (the hazard TestSinkEventsSurvivePoolReuse pins at runtime; this
// check pins it at build time).
//
// The analysis is per function and flow-insensitive in the small:
//
//   - roots: results of (*sync.Pool).Get, plus any variable,
//     parameter, or range binding whose type is a pointer to (or
//     slice of pointers into) a pooled type;
//   - a "pooled pointer expression" is a root itself, &root.Field,
//     &root.Slice[i], or a selector of slice type rooted at one
//     (b.Events aliases the pooled batch's storage);
//   - locals that receive pooled pointers (by assignment, append, or
//     element store) become pooled-holding; storing a root, a pooled
//     pointer expression, or a pooled-holding local into a field,
//     global, field-rooted element, or channel is the violation.
//
// Passing pooled pointers DOWN (call arguments) is fine — the callee
// runs inside the batch's lifetime. Copying the pointed-to value
// (ev := *pev, rec.ev = *pev) is the sanctioned way to retain one.
var PoolEscape = &Analyzer{
	Name: "poolescape",
	Run:  runPoolEscape,
}

func runPoolEscape(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			var ftype *ast.FuncType
			switch n := n.(type) {
			case *ast.FuncDecl:
				body, ftype = n.Body, n.Type
			case *ast.FuncLit:
				body, ftype = n.Body, n.Type
			default:
				return true
			}
			if body != nil {
				pe := &poolEscape{pass: pass, pooled: map[types.Object]bool{}, holders: map[types.Object]bool{}}
				pe.scan(ftype, body)
			}
			return true // nested literals get their own (additional) scan
		})
	}
}

type poolEscape struct {
	pass    *Pass
	pooled  map[types.Object]bool // vars bound to pooled pointers/slices
	holders map[types.Object]bool // locals holding pooled pointers inside
}

// scan walks the function body in source order so taints are recorded
// before later statements use them.
func (pe *poolEscape) scan(ftype *ast.FuncType, body *ast.BlockStmt) {
	// Seed roots from the function scope (receiver and parameters of
	// pooled pointer/slice type); go/types records it at the FuncType.
	if scope, ok := pe.pass.TypesInfo.Scopes[ftype]; ok {
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj != nil && pe.pooledValueType(obj.Type()) {
				pe.pooled[obj] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // analyzed as its own unit
		case *ast.Ident:
			// Any local binding of pooled pointer/slice type is a root
			// regardless of provenance (:=, var, range): a *vm.Event is
			// treated as aliasing pooled storage wherever it came from.
			if obj := pe.pass.TypesInfo.Defs[n]; obj != nil && pe.pooledValueType(obj.Type()) {
				pe.pooled[obj] = true
			}
		case *ast.AssignStmt:
			pe.assign(n)
		case *ast.SendStmt:
			if pe.pooledPtr(n.Value) || pe.holderExpr(n.Value) {
				pe.pass.Reportf(n.Value.Pos(), "pooled value sent on a channel outlives its recycle; copy the value or hand off ownership explicitly")
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i < len(n.Values) && pe.taintSource(n.Values[i]) {
					if obj := pe.pass.TypesInfo.Defs[name]; obj != nil {
						pe.pooled[obj] = true
					}
				}
			}
		}
		return true
	})
}

func (pe *poolEscape) assign(n *ast.AssignStmt) {
	for i, lhs := range n.Lhs {
		if i >= len(n.Rhs) {
			break // x, y = f() — function results are not pooled exprs
		}
		rhs := n.Rhs[i]
		hazard := pe.pooledPtr(rhs) || pe.holderExpr(rhs) || pe.taintSource(rhs) ||
			pe.compositeHoldsPooled(rhs)
		if !hazard {
			continue
		}
		switch lhs := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			if lhs.Name == "_" {
				continue
			}
			obj := pe.pass.TypesInfo.Defs[lhs]
			if obj == nil {
				obj = pe.pass.TypesInfo.Uses[lhs]
			}
			if obj == nil {
				continue
			}
			if isPackageLevel(obj) {
				pe.pass.Reportf(rhs.Pos(), "pooled value stored in package-level variable %s outlives its recycle", lhs.Name)
				continue
			}
			// Local: remember that it now holds pooled pointers.
			if pe.taintSource(rhs) || pe.pooledValueType(obj.Type()) {
				pe.pooled[obj] = true
			} else {
				pe.holders[obj] = true
			}
		case *ast.SelectorExpr:
			if pe.rootPooled(lhs.X) {
				continue // storing into the pooled object itself is pool-internal
			}
			pe.pass.Reportf(rhs.Pos(), "pooled value stored in field %s outlives the batch's recycle; store a copy of the event instead of the pointer", exprString(lhs))
		case *ast.IndexExpr:
			// An element store into a plain local container taints the
			// container; into anything field- or global-rooted it escapes.
			if id := baseLocalIdent(lhs.X); id != nil {
				if obj := pe.pass.TypesInfo.Uses[id]; obj != nil && !isPackageLevel(obj) {
					if !pe.pooled[obj] {
						pe.holders[obj] = true
					}
					continue
				}
			}
			pe.pass.Reportf(rhs.Pos(), "pooled value stored in %s outlives the batch's recycle", exprString(lhs))
		case *ast.StarExpr:
			// *p = pooledptr — storing through a pointer whose target
			// is unknown; conservatively allow (copying *values* is the
			// common legitimate shape here).
		}
	}
}

// taintSource reports expressions that mint pooled values: a
// sync.Pool Get call (with or without a type assertion).
func (pe *poolEscape) taintSource(e ast.Expr) bool {
	e = ast.Unparen(e)
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ta.X
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeFunc(pe.pass.TypesInfo, call)
	if fn == nil || fn.Name() != "Get" {
		return false
	}
	recv := recvType(fn)
	return recv != nil && isPkgType(recv, "sync", "Pool")
}

// pooledPtr reports whether e evaluates to a pointer into pooled
// storage: a pooled root, &root.Sel..., &root.Sel[i], or a selector
// of slice type rooted at one.
func (pe *poolEscape) pooledPtr(e ast.Expr) bool {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.UnaryExpr:
		if e.Op.String() == "&" {
			return pe.rootPooled(e.X)
		}
	case *ast.Ident, *ast.SelectorExpr:
		if pe.rootPooled(e) {
			t := pe.pass.TypesInfo.Types[e].Type
			if t != nil {
				switch t.Underlying().(type) {
				case *types.Pointer, *types.Slice:
					return true
				}
			}
		}
	case *ast.SliceExpr:
		return pe.pooledPtr(e.X)
	case *ast.CallExpr:
		// append(x, pooled...) keeps the pooled pointers in the result.
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" {
			for _, arg := range e.Args {
				if pe.pooledPtr(arg) || pe.holderExpr(arg) || pe.compositeHoldsPooled(arg) {
					return true
				}
			}
		}
	}
	return false
}

// holderExpr reports whether e is (a slice of) a pooled-holding local.
func (pe *poolEscape) holderExpr(e ast.Expr) bool {
	e = ast.Unparen(e)
	if se, ok := e.(*ast.SliceExpr); ok {
		return pe.holderExpr(se.X)
	}
	if call, ok := e.(*ast.CallExpr); ok {
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
			for _, arg := range call.Args {
				if pe.holderExpr(arg) || pe.pooledPtr(arg) {
					return true
				}
			}
		}
		return false
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := pe.pass.TypesInfo.Uses[id]; obj != nil {
			return pe.holders[obj]
		}
	}
	return false
}

// compositeHoldsPooled reports composite literals embedding pooled
// pointers (T{ev: ptr}).
func (pe *poolEscape) compositeHoldsPooled(e ast.Expr) bool {
	cl, ok := ast.Unparen(e).(*ast.CompositeLit)
	if !ok {
		return false
	}
	for _, elt := range cl.Elts {
		v := elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			v = kv.Value
		}
		if pe.pooledPtr(v) || pe.holderExpr(v) {
			return true
		}
	}
	return false
}

// rootPooled walks selector/index chains to the base object and
// reports whether it is a pooled root.
func (pe *poolEscape) rootPooled(e ast.Expr) bool {
	obj := rootObj(pe.pass.TypesInfo, e)
	return obj != nil && pe.pooled[obj]
}

// baseLocalIdent unwraps index/slice/paren chains and returns the base
// identifier if the expression is rooted directly at one (m[k],
// m[i][j]); selector-rooted chains (s.m[k]) return nil.
func baseLocalIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// pooledValueType reports pointer-to-pooled and slice-of-pointer-to-
// pooled types (the shapes that alias pooled storage when copied).
func (pe *poolEscape) pooledValueType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch tt := t.Underlying().(type) {
	case *types.Pointer:
		return pe.pooledNamed(tt.Elem())
	case *types.Slice:
		if p, ok := tt.Elem().Underlying().(*types.Pointer); ok {
			return pe.pooledNamed(p.Elem())
		}
	}
	return false
}

func (pe *poolEscape) pooledNamed(t types.Type) bool {
	obj := namedObj(t)
	if obj == nil {
		return false
	}
	return pe.pass.IsPooledType(obj)
}

// rootObj resolves the base identifier of a selector/index/slice
// chain to its object.
func rootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func isPackageLevel(obj types.Object) bool {
	return obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}
