package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
)

// DeadExport flags every exported top-level name, method or field of
// a library (non-main) package that nothing outside a _test.go file
// references: not its own package, not a command, not the nested
// bench/ module when its root is loaded too. An exported name only
// tests call is API kept alive for its tests; delete it, or suppress
// the finding with //scaldift:ignore deadexport <reason> naming the
// ROADMAP item that needs it or the test-support role it plays.
//
// It needs the whole program, so it runs only in scaldiftvet's
// standalone mode (`scaldiftvet ./... ./bench/...`), never under go
// vet's one-package-at-a-time protocol. Each package is type-checked
// against its dependencies' export data, and each module root loads
// its own, so one declaration is several types.Objects; uses are
// matched by (package path, receiver, name) instead of by object.
//
// Not flagged:
//   - a use inside the name's own declaration (a recursive call, a
//     method's receiver) is not a reference;
//   - a method that satisfies a method of an interface some package
//     uses, an instantiated generic interface included: it is called
//     through that interface, which the call sites name instead;
//   - an embedded field, which exists to promote its methods;
//   - a field carrying a struct tag, which reflection reads.
//
// Writing a field is not reading it: a field whose every non-test
// reference is the target of a plain `=` or a key of a keyed struct
// literal is flagged. `x.F += 1`, `x.F++`, `&x.F`, `x.F.G = v` and an
// unkeyed struct literal count as reads.
var DeadExport = &Analyzer{
	Name:       "deadexport",
	runProgram: runDeadExport,
}

// exportKey names one declaration across type-checking universes.
// recv is the receiver or struct type for methods and fields, "" for
// top-level names.
type exportKey struct{ pkg, recv, name string }

func (k exportKey) String() string {
	if k.recv == "" {
		return path.Base(k.pkg) + "." + k.name
	}
	return path.Base(k.pkg) + "." + k.recv + "." + k.name
}

// exportDecl is one candidate declaration.
type exportDecl struct {
	key  exportKey
	pass *Pass
	id   *ast.Ident
}

type deadExport struct {
	used    map[exportKey]bool
	libs    map[string]bool // paths of the non-main analyzed packages
	fields  map[*types.Var]exportKey
	scanned map[*types.Package]bool
}

func runDeadExport(passes []*Pass) {
	de := &deadExport{
		used:    map[exportKey]bool{},
		libs:    map[string]bool{},
		fields:  map[*types.Var]exportKey{},
		scanned: map[*types.Package]bool{},
	}
	for _, p := range passes {
		if p.Pkg.Name() != "main" {
			de.libs[p.Pkg.Path()] = true
		}
	}
	var decls []exportDecl
	for _, p := range passes {
		if de.libs[p.Pkg.Path()] {
			decls = append(decls, declaredExports(p)...)
		}
		de.collectUses(p)
		de.collectSatisfied(p)
	}
	for _, d := range decls {
		if !de.used[d.key] {
			d.pass.Reportf(d.id.Pos(), "%s has no non-test reference: delete it, or //scaldift:ignore deadexport naming the ROADMAP item or test-support role that keeps it", d.key)
		}
	}
}

// declaredExports lists the package's candidate declarations.
func declaredExports(p *Pass) []exportDecl {
	var out []exportDecl
	add := func(recv string, id *ast.Ident) {
		if id.IsExported() {
			out = append(out, exportDecl{exportKey{p.Pkg.Path(), recv, id.Name}, p, id})
		}
	}
	for _, f := range p.Files {
		if p.IsTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					add("", decl.Name)
				} else if obj := namedObj(p.TypesInfo.TypeOf(decl.Recv.List[0].Type)); obj != nil {
					add(obj.Name(), decl.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add("", id)
						}
					case *ast.TypeSpec:
						add("", spec.Name)
						switch t := spec.Type.(type) {
						case *ast.StructType:
							for _, fld := range t.Fields.List {
								if fld.Tag != nil {
									continue
								}
								for _, id := range fld.Names { // embedded fields have none
									add(spec.Name.Name, id)
								}
							}
						case *ast.InterfaceType:
							for _, m := range t.Methods.List {
								for _, id := range m.Names {
									add(spec.Name.Name, id)
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// collectUses marks every library declaration the package's non-test
// files reference outside that declaration itself.
func (de *deadExport) collectUses(p *Pass) {
	info := p.TypesInfo
	for _, f := range p.Files {
		if p.IsTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				// decl.Type leaves out the receiver, which names its
				// type without using it.
				self := de.keySet(info.Defs[decl.Name])
				de.walk(info, decl.Type, self)
				if decl.Body != nil {
					de.walk(info, decl.Body, self)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					var objs []types.Object
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						objs = append(objs, info.Defs[spec.Name])
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							objs = append(objs, info.Defs[id])
						}
					}
					de.walk(info, spec, de.keySet(objs...))
				}
			}
		}
	}
}

// keySet returns the keys of those of objs that have one.
func (de *deadExport) keySet(objs ...types.Object) map[exportKey]bool {
	set := map[exportKey]bool{}
	for _, obj := range objs {
		if k, ok := de.keyOf(obj); ok {
			set[k] = true
		}
	}
	return set
}

func (de *deadExport) walk(info *types.Info, n ast.Node, self map[exportKey]bool) {
	mark := func(obj types.Object) {
		if k, ok := de.keyOf(obj); ok && !self[k] {
			de.used[k] = true
		}
	}
	// writes holds the field names written without being read: the
	// target of a plain `=` and a keyed struct literal's keys. Inspect
	// meets the statement or literal before the names inside it.
	writes := map[*ast.Ident]bool{}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if v, ok := info.Uses[n].(*types.Var); !ok || !v.IsField() || !writes[n] {
				mark(info.Uses[n])
			}
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN {
				for _, lhs := range n.Lhs {
					if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
						writes[sel.Sel] = true
					}
				}
			}
		case *ast.CompositeLit:
			st, ok := under(info.TypeOf(n)).(*types.Struct)
			if !ok {
				break
			}
			for _, elt := range n.Elts {
				if kv, keyed := elt.(*ast.KeyValueExpr); keyed {
					if id, ok := kv.Key.(*ast.Ident); ok {
						writes[id] = true
					}
				} else {
					// An unkeyed struct literal sets every field by
					// position.
					for i := 0; i < st.NumFields(); i++ {
						mark(st.Field(i))
					}
					break
				}
			}
		}
		return true
	})
}

// under returns t's underlying type, through one pointer.
func under(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		return ptr.Elem().Underlying()
	}
	return t.Underlying()
}

// keyOf returns the key of a library package's package-level object,
// method or named-struct field.
func (de *deadExport) keyOf(obj types.Object) (exportKey, bool) {
	if obj == nil || obj.Pkg() == nil || !de.libs[obj.Pkg().Path()] {
		return exportKey{}, false
	}
	switch obj := obj.(type) {
	case *types.Func:
		if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
			if named := namedObj(recv.Type()); named != nil {
				return exportKey{obj.Pkg().Path(), named.Name(), obj.Name()}, true
			}
			return exportKey{}, false
		}
	case *types.Var:
		if obj.IsField() {
			de.scanFields(obj.Pkg())
			k, ok := de.fields[obj.Origin()]
			return k, ok
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return exportKey{}, false
	}
	return exportKey{obj.Pkg().Path(), "", obj.Name()}, true
}

// scanFields records the owning type of every field of pkg's named
// struct types.
func (de *deadExport) scanFields(pkg *types.Package) {
	if de.scanned[pkg] {
		return
	}
	de.scanned[pkg] = true
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				de.fields[st.Field(i)] = exportKey{pkg.Path(), name, st.Field(i).Name()}
			}
		}
	}
}

// collectSatisfied marks every library method that implements a
// method of an interface the package names: interfaces in its types
// and objects, instantiated generic ones included, and those declared
// by the packages it imports (fmt.Stringer is called by fmt, not by
// name). The check runs inside the package's own universe, where
// types from one export-data import compare identical.
func (de *deadExport) collectSatisfied(p *Pass) {
	var ifaces []*types.Interface
	var concrete []*types.Named
	seen := map[types.Type]bool{}
	var visit func(t types.Type)
	visit = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			for i := 0; i < t.TypeArgs().Len(); i++ {
				visit(t.TypeArgs().At(i))
			}
			if t.TypeParams().Len() > t.TypeArgs().Len() {
				return // uninstantiated generic type
			}
			if it, ok := t.Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			} else if t.Obj().Pkg() != nil && de.libs[t.Obj().Pkg().Path()] {
				concrete = append(concrete, t)
			}
		case *types.Alias:
			visit(types.Unalias(t))
		case *types.Interface:
			ifaces = append(ifaces, t)
		case *types.Pointer:
			visit(t.Elem())
		case *types.Slice:
			visit(t.Elem())
		case *types.Array:
			visit(t.Elem())
		case *types.Chan:
			visit(t.Elem())
		case *types.Map:
			visit(t.Key())
			visit(t.Elem())
		case *types.Signature:
			visit(t.Params())
			visit(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				visit(t.At(i).Type())
			}
		}
	}
	info := p.TypesInfo
	for _, tv := range info.Types {
		visit(tv.Type)
	}
	for _, m := range []map[*ast.Ident]types.Object{info.Defs, info.Uses} {
		for _, obj := range m {
			if obj != nil {
				visit(obj.Type())
			}
		}
	}
	for _, pkg := range append([]*types.Package{p.Pkg}, p.Pkg.Imports()...) {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				visit(tn.Type())
			}
		}
	}

	// Index the concrete types by method name so each interface is
	// checked only against types that could implement it.
	byMethod := map[string][]*types.Named{}
	for _, t := range concrete {
		ms := types.NewMethodSet(types.NewPointer(t))
		for i := 0; i < ms.Len(); i++ {
			name := ms.At(i).Obj().Name()
			byMethod[name] = append(byMethod[name], t)
		}
	}
	for _, it := range ifaces {
		if it.NumMethods() == 0 {
			continue
		}
		for _, t := range byMethod[it.Method(0).Name()] {
			ptr := types.NewPointer(t)
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				obj, _, _ := types.LookupFieldOrMethod(ptr, true, it.Method(i).Pkg(), it.Method(i).Name())
				if k, ok := de.keyOf(obj); ok {
					de.used[k] = true
				}
			}
		}
	}
}
