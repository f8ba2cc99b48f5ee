package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// LockIO codifies the PR 5 "decode outside ts.mu" rule: no file I/O,
// chunk decode, or //scaldift:io-tagged call may execute while a
// sync.Mutex or sync.RWMutex is held. The read path's locks cover
// index and cache state only; holding one across a disk read or chunk
// decode serializes every concurrent query touching that state behind
// the disk (the exact regression store.Reader.chunkAt was rebuilt to
// avoid).
//
// The analysis is lexical per function: a region is "locked" between
// a `x.Lock()` / `x.RLock()` statement and the matching `x.Unlock()` /
// `x.RUnlock()` in the same block structure (a deferred unlock keeps
// the lock held to the end of the function). Branches see the held
// set of their entry point; lock state changed inside a nested block
// does not leak out of it, except at the top level of the function
// body where statements are sequential. Calls made by spawned
// goroutines (func literals) run without the caller's locks and are
// skipped. Cross-function lock holding (a helper called with a lock
// already held) is out of scope — tag the helper //scaldift:io so its
// call sites are checked instead.
var LockIO = &Analyzer{
	Name: "lockio",
	Doc:  "flags file I/O, chunk decode, and //scaldift:io calls made while a sync mutex is held",
	Run:  runLockIO,
}

func runLockIO(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			lw := &lockWalker{pass: pass}
			lw.stmts(fd.Body.List, map[string]bool{})
		}
		// Function literals are their own analysis units, entered with
		// no locks held (goroutine bodies run without the spawner's
		// locks; the rare immediately-invoked closure under a lock is a
		// documented blind spot).
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok && lit.Body != nil {
				lw := &lockWalker{pass: pass}
				lw.stmts(lit.Body.List, map[string]bool{})
			}
			return true
		})
	}
}

type lockWalker struct {
	pass *Pass
}

// stmts scans a statement sequence, threading the held-lock set
// through it. Nested blocks get a copy: a lock taken (or released)
// inside an if/for/switch arm is scoped to that arm.
func (lw *lockWalker) stmts(list []ast.Stmt, held map[string]bool) {
	for _, s := range list {
		lw.stmt(s, held)
	}
}

func (lw *lockWalker) stmt(s ast.Stmt, held map[string]bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if lock, name, ok := lw.lockOp(call); ok {
				if lock {
					held[name] = true
				} else {
					delete(held, name)
				}
				return
			}
		}
		lw.check(s, held)
	case *ast.DeferStmt:
		// A deferred unlock keeps the lock held for the rest of the
		// function; the deferred call itself runs after the body, so
		// nothing inside it is checked against the current held set.
		if _, _, ok := lw.lockOp(s.Call); ok {
			return
		}
		for _, arg := range s.Call.Args {
			lw.checkExpr(arg, held)
		}
	case *ast.GoStmt:
		// The goroutine body runs without the caller's locks.
		for _, arg := range s.Call.Args {
			lw.checkExpr(arg, held)
		}
	case *ast.BlockStmt:
		lw.stmts(s.List, copyHeld(held))
	case *ast.IfStmt:
		if s.Init != nil {
			lw.stmt(s.Init, held)
		}
		lw.checkExpr(s.Cond, held)
		lw.stmts(s.Body.List, copyHeld(held))
		if s.Else != nil {
			lw.stmt(s.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			lw.stmt(s.Init, held)
		}
		if s.Cond != nil {
			lw.checkExpr(s.Cond, held)
		}
		inner := copyHeld(held)
		if s.Post != nil {
			lw.stmt(s.Post, inner)
		}
		lw.stmts(s.Body.List, inner)
	case *ast.RangeStmt:
		lw.checkExpr(s.X, held)
		lw.stmts(s.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			lw.stmt(s.Init, held)
		}
		if s.Tag != nil {
			lw.checkExpr(s.Tag, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					lw.checkExpr(e, held)
				}
				lw.stmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			lw.stmt(s.Init, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				lw.stmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				lw.stmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.LabeledStmt:
		lw.stmt(s.Stmt, held)
	default:
		lw.check(s, held)
	}
}

// lockOp classifies a call as Lock/RLock (true) or Unlock/RUnlock
// (false) on a sync.Mutex or sync.RWMutex, returning the receiver's
// printed name as the lock identity.
func (lw *lockWalker) lockOp(call *ast.CallExpr) (lock bool, name string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return false, "", false
	}
	method := sel.Sel.Name
	switch method {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return false, "", false
	}
	recv := lw.pass.TypesInfo.Types[sel.X].Type
	if recv == nil {
		return false, "", false
	}
	if !isPkgType(recv, "sync", "Mutex") && !isPkgType(recv, "sync", "RWMutex") {
		return false, "", false
	}
	return method == "Lock" || method == "RLock", exprString(sel.X), true
}

// check scans a statement's expressions (skipping nested func
// literals) for I/O calls while locks are held.
func (lw *lockWalker) check(s ast.Stmt, held map[string]bool) {
	if len(held) == 0 {
		return
	}
	ast.Inspect(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			lw.checkCall(n, held)
		}
		return true
	})
}

func (lw *lockWalker) checkExpr(e ast.Expr, held map[string]bool) {
	if e == nil || len(held) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			lw.checkCall(n, held)
		}
		return true
	})
}

func (lw *lockWalker) checkCall(call *ast.CallExpr, held map[string]bool) {
	what, ok := lw.ioCall(call)
	if !ok {
		return
	}
	locks := make([]string, 0, len(held))
	for name := range held {
		locks = append(locks, name)
	}
	sortStrings(locks)
	lw.pass.Reportf(call.Pos(), "%s called while %s is held; do the I/O outside the lock (snapshot under the lock, load after unlocking)",
		what, strings.Join(locks, ", "))
}

// osIOFuncs is the built-in I/O set: package os functions that hit
// the filesystem.
var osIOFuncs = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"ReadFile": true, "WriteFile": true, "ReadDir": true, "ReadLink": true,
	"Stat": true, "Lstat": true, "Remove": true, "RemoveAll": true,
	"Rename": true, "Mkdir": true, "MkdirAll": true, "MkdirTemp": true,
	"Truncate": true, "Chmod": true, "Chtimes": true, "Symlink": true, "Link": true,
}

// fileIOMethods is the built-in I/O set on *os.File.
var fileIOMethods = map[string]bool{
	"Read": true, "ReadAt": true, "ReadFrom": true,
	"Write": true, "WriteAt": true, "WriteString": true, "WriteTo": true,
	"Seek": true, "Sync": true, "Stat": true, "Truncate": true, "Close": true,
}

// ioPkgFuncs is the built-in I/O set in package io.
var ioPkgFuncs = map[string]bool{
	"ReadAll": true, "ReadFull": true, "Copy": true, "CopyN": true,
	"CopyBuffer": true, "WriteString": true, "ReadAtLeast": true,
}

// ioCall reports whether the call is I/O-like: a built-in filesystem
// or stream primitive, a chunk decode, or a //scaldift:io-tagged
// function of this package.
func (lw *lockWalker) ioCall(call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(lw.pass.TypesInfo, call)
	if fn == nil {
		return "", false
	}
	if lw.pass.IsIOTagged(fn) {
		return fn.Name() + " (//scaldift:io)", true
	}
	pkg := fn.Pkg()
	recv := recvType(fn)
	switch {
	case pkg != nil && pkg.Name() == "os" && recv == nil && osIOFuncs[fn.Name()]:
		return "os." + fn.Name(), true
	case recv != nil && isPkgType(recv, "os", "File") && fileIOMethods[fn.Name()]:
		return "(*os.File)." + fn.Name(), true
	case pkg != nil && pkg.Name() == "io" && recv == nil && ioPkgFuncs[fn.Name()]:
		return "io." + fn.Name(), true
	case recv != nil && (isPkgType(recv, "bufio", "Reader") || isPkgType(recv, "bufio", "Writer")):
		return "bufio." + fn.Name(), true
	case recv != nil && isPkgType(recv, "ddg", "RawChunk") && fn.Name() == "Decode":
		return "ddg.RawChunk.Decode", true
	}
	return "", false
}

// recvType returns the method receiver type, or nil for plain funcs.
func recvType(fn *types.Func) types.Type {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}

func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
