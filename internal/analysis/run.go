package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// unit is one type-checked package.
type unit struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// runUnits runs the analyzers over type-checked packages sharing
// fset, applies //scaldift:ignore suppression, and appends the
// directive checks (malformed directives, stale ignores). Whole-program
// analyzers run only when whole says units is the whole program.
// Diagnostics come back sorted by position.
func runUnits(fset *token.FileSet, units []unit, analyzers []*Analyzer, whole bool) []Diagnostic {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	dirs := make([]*directives, len(units))
	for i, u := range units {
		dirs[i] = parseDirectives(fset, u.files, u.info, known)
	}

	var out []Diagnostic
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		if a.runProgram != nil && !whole {
			continue
		}
		ran[a.Name] = true
		passes := make([]*Pass, len(units))
		for i, u := range units {
			d := dirs[i]
			pass := &Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     u.files,
				Pkg:       u.pkg,
				TypesInfo: u.info,
				dirs:      d,
			}
			pass.report = func(diag Diagnostic) {
				if !d.suppressed(fset, diag) {
					out = append(out, diag)
				}
			}
			passes[i] = pass
			if a.Run != nil {
				a.Run(pass)
			}
		}
		if a.runProgram != nil {
			a.runProgram(passes)
		}
	}
	for _, d := range dirs {
		out = append(out, d.malformed...)
		out = append(out, d.stale(ran)...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos != out[j].Pos {
			return out[i].Pos < out[j].Pos
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}

// Suite returns the full scaldift analyzer suite in a stable order.
func Suite() []*Analyzer {
	return []*Analyzer{
		PoolEscape,
		LockIO,
		CancelPoll,
		StickyErr,
		DeadExport,
	}
}

// newInfo allocates a types.Info with every map the analyzers read.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// calleeFunc resolves a call expression to the called function or
// method object, seeing through parentheses. Calls to func values and
// builtins return nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// namedObj unwraps pointers and aliases down to the defining object
// of a named type, or nil.
func namedObj(t types.Type) *types.TypeName {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Alias:
			t = types.Unalias(tt)
		case *types.Named:
			return tt.Obj()
		default:
			return nil
		}
	}
}

// isPkgType reports whether t (through pointers) is the named type
// pkgName.typeName. Matching is by package NAME, not full path, so
// analyzers behave identically over the real packages and over test
// fixtures that model them under short import paths.
func isPkgType(t types.Type, pkgName, typeName string) bool {
	obj := namedObj(t)
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Name() == pkgName && obj.Name() == typeName
}

// exprString renders a (small) expression for lock identity and
// messages: selectors and identifiers only, everything else opaque.
func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return "&" + exprString(e.X)
		}
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	}
	return "<expr>"
}
