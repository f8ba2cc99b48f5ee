package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ignoreDir is one //scaldift:ignore directive.
type ignoreDir struct {
	pos      token.Pos
	file     string
	line     int
	analyzer string
	reason   string
	used     bool
}

// directives indexes a package's scaldift comment directives.
type directives struct {
	ioFuncs     map[*types.Func]bool
	pooledTypes map[string]bool
	ignores     []*ignoreDir
	malformed   []Diagnostic
}

const (
	dirIgnore = "//scaldift:ignore"
	dirIO     = "//scaldift:io"
	dirPooled = "//scaldift:pooled"
)

// parseDirectives scans every comment in the package. Directive
// grammar errors (unknown directive, missing analyzer or reason) are
// collected as diagnostics of the pseudo-analyzer "directive" so they
// fail the vet gate like any other finding.
func parseDirectives(fset *token.FileSet, files []*ast.File, info *types.Info, known map[string]bool) *directives {
	d := &directives{
		ioFuncs:     make(map[*types.Func]bool),
		pooledTypes: make(map[string]bool),
	}
	bad := func(pos token.Pos, format string, args ...any) {
		d.malformed = append(d.malformed, Diagnostic{
			Pos: pos, Analyzer: "directive",
			Message: sprintf(format, args...),
		})
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				switch {
				case strings.HasPrefix(text, dirIgnore):
					rest := strings.TrimPrefix(text, dirIgnore)
					if rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
						// Some other token, e.g. //scaldift:ignored.
						bad(c.Pos(), "unknown scaldift directive %q", strings.Fields(text)[0])
						continue
					}
					fields := strings.Fields(rest)
					if len(fields) == 0 {
						bad(c.Pos(), "//scaldift:ignore needs an analyzer name and a reason")
						continue
					}
					name := fields[0]
					if !known[name] {
						bad(c.Pos(), "//scaldift:ignore names unknown analyzer %q", name)
						continue
					}
					if len(fields) < 2 {
						bad(c.Pos(), "//scaldift:ignore %s needs a reason", name)
						continue
					}
					p := fset.Position(c.Pos())
					d.ignores = append(d.ignores, &ignoreDir{
						pos: c.Pos(), file: p.Filename, line: p.Line,
						analyzer: name,
						reason:   strings.Join(fields[1:], " "),
					})
				case text == dirIO, text == dirPooled:
					// Validated against their attachment below.
				case strings.HasPrefix(text, "//scaldift:"):
					bad(c.Pos(), "unknown scaldift directive %q", strings.Fields(text)[0])
				}
			}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if hasDirective(decl.Doc, dirIO) {
					if obj, ok := info.Defs[decl.Name].(*types.Func); ok {
						d.ioFuncs[obj] = true
					}
				}
			case *ast.GenDecl:
				pooledAll := hasDirective(decl.Doc, dirPooled)
				for _, spec := range decl.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if pooledAll || hasDirective(ts.Doc, dirPooled) || hasDirective(ts.Comment, dirPooled) {
						d.pooledTypes[ts.Name.Name] = true
					}
				}
			}
		}
	}
	return d
}

func hasDirective(cg *ast.CommentGroup, dir string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if c.Text == dir {
			return true
		}
	}
	return false
}

// suppressed reports whether an ignore directive covers the
// diagnostic: same analyzer, same file, and the directive sits on the
// diagnostic's line or alone on the line directly above it. A match
// marks the directive used.
func (d *directives) suppressed(fset *token.FileSet, diag Diagnostic) bool {
	if diag.Analyzer == "directive" {
		return false // the directive checks themselves cannot be ignored
	}
	p := fset.Position(diag.Pos)
	hit := false
	for _, ig := range d.ignores {
		if ig.analyzer != diag.Analyzer || ig.file != p.Filename {
			continue
		}
		if ig.line == p.Line || ig.line == p.Line-1 {
			ig.used = true
			hit = true
		}
	}
	return hit
}

// stale returns a diagnostic for every ignore of an analyzer that ran
// and suppressed nothing: either the flagged code was fixed (delete
// the directive) or the directive never matched a finding (it was
// misplaced).
func (d *directives) stale(ran map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, ig := range d.ignores {
		if !ig.used && ran[ig.analyzer] {
			out = append(out, Diagnostic{
				Pos: ig.pos, Analyzer: "directive",
				Message: sprintf("stale //scaldift:ignore %s: it suppresses no diagnostic; delete it or move it to the flagged line", ig.analyzer),
			})
		}
	}
	return out
}

func sprintf(format string, args ...any) string {
	if len(args) == 0 {
		return format
	}
	return fmt.Sprintf(format, args...)
}
