package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// RunPackage runs the analyzers over one type-checked package,
// applies //scaldift:ignore suppression, and appends the directive
// checks (malformed directives, stale ignores). Diagnostics come back
// sorted by position.
func RunPackage(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) []Diagnostic {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	dirs := parseDirectives(fset, files, info, known)

	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			dirs:      dirs,
		}
		pass.report = func(d Diagnostic) {
			if !dirs.suppressed(fset, d) {
				out = append(out, d)
			}
		}
		a.Run(pass)
	}
	out = append(out, dirs.malformed...)
	out = append(out, dirs.stale()...)
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
	}
}

// NewInfo allocates a types.Info with every map the analyzers read.
func NewInfo() *types.Info {
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
