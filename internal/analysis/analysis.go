// Package analysis is the repo's project-specific static-analysis
// suite: a set of analyzers that machine-check the hard-won
// concurrency and I/O invariants this codebase keeps re-learning from
// bugs (pooled-event pointer retention in PR 3, chunk I/O under ts.mu
// in PR 5, negative-caching transient read errors in PR 7) and the
// least-code rule (deadexport: no exported name without a non-test
// caller), plus the driver machinery to run them as a `go vet
// -vettool=` unitchecker, as a standalone whole-program check
// (cmd/scaldiftvet) and as in-repo fixture tests.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis —
// an Analyzer owns a Run function over a type-checked Pass — but is
// built on the standard library alone (go/ast, go/types, go/importer)
// because this module is dependency-free by policy.
//
// # Directives
//
// Three comment directives steer the analyzers:
//
//	//scaldift:io
//	    In a function's doc comment: marks the function as performing
//	    file I/O or another operation too heavy to run under a mutex.
//	    lockio flags calls to tagged functions (and to a built-in set
//	    of os/io primitives) made while a sync.Mutex or sync.RWMutex
//	    is held.
//
//	//scaldift:pooled
//	    In a type declaration's doc comment: values of this type are
//	    recycled through a pool, so pointers into them must not
//	    outlive the processing callback. vm.Batch and vm.Event are
//	    pooled by definition (the recorder recycles batches).
//
//	//scaldift:ignore <analyzer> <reason>
//	    On the flagged line, or alone on the line directly above it:
//	    suppresses that analyzer's diagnostic there. The reason is
//	    mandatory, and the driver verifies every ignore still
//	    suppresses something — a stale ignore is itself a diagnostic,
//	    so the build fails until it is deleted.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Diagnostic is one finding, positioned in the analyzed package.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Analyzer is one named invariant check.
type Analyzer struct {
	Name string
	Run  func(*Pass)

	// runProgram, set instead of Run, checks every package at once.
	// Only the standalone driver loads a whole program, so go vet's
	// per-package mode skips such an analyzer and its ignores.
	runProgram func([]*Pass)
}

// Pass carries one type-checked package through an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
	dirs   *directives
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// IsIOTagged reports whether the function object is declared in this
// package with a //scaldift:io directive on its declaration.
func (p *Pass) IsIOTagged(fn *types.Func) bool {
	if fn == nil || p.dirs == nil {
		return false
	}
	return p.dirs.ioFuncs[fn]
}

// IsPooledType reports whether the named type is pool-recycled: either
// declared in this package with //scaldift:pooled, or one of the
// built-in pooled types (vm.Batch, vm.Event — recycled by
// vm.Recorder's sync.Pool and the machine's reused inline event).
func (p *Pass) IsPooledType(obj types.Object) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	if obj.Pkg().Name() == "vm" && (obj.Name() == "Batch" || obj.Name() == "Event") {
		return true
	}
	if p.dirs == nil {
		return false
	}
	return p.dirs.pooledTypes[obj.Name()] && obj.Pkg() == p.Pkg
}

// IsTestFile reports whether pos lies in a _test.go file.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	f := p.Fset.File(pos)
	if f == nil {
		return false
	}
	name := f.Name()
	return len(name) >= 8 && name[len(name)-8:] == "_test.go"
}
