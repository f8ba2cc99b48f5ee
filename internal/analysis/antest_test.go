package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// This file is a miniature analysistest: it loads fixture packages
// from a testdata tree, type-checks them offline (fixture-local imports
// resolve inside testdata/src, standard-library imports compile from
// GOROOT source), runs one analyzer through the full driver — directive
// suppression included — and matches diagnostics against
// `// want "regexp"` comments in the fixtures.

// srcImporter compiles stdlib packages from GOROOT source; it needs no
// export data and no network, but is slow, so it is shared and cached
// across all fixture tests in the process.
var (
	srcOnce sync.Once
	srcFset *token.FileSet
	srcImp  types.Importer
)

func stdlibImporter() (*token.FileSet, types.Importer) {
	srcOnce.Do(func() {
		srcFset = token.NewFileSet()
		srcImp = importer.ForCompiler(srcFset, "source", nil)
	})
	return srcFset, srcImp
}

// fixtureImporter resolves fixture-local import paths (bare names like
// "ddg" or "vm") from the testdata src root first, then falls back to
// the stdlib source importer. Like export data, an imported fixture
// package leaves out its _test.go files.
type fixtureImporter struct {
	srcroot string
	fset    *token.FileSet
	std     types.Importer
	loaded  map[string]*types.Package
}

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := fi.loaded[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(fi.srcroot, path)
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		pkg, _, _, err := loadDir(fi.fset, dir, path, fi, false)
		if err != nil {
			return nil, fmt.Errorf("fixture import %q: %w", path, err)
		}
		fi.loaded[path] = pkg
		return pkg, nil
	}
	return fi.std.Import(path)
}

// loadDir parses and type-checks every .go file in dir as one package,
// its _test.go files only if tests is set.
func loadDir(fset *token.FileSet, dir, path string, imp types.Importer, tests bool) (*types.Package, []*ast.File, *types.Info, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	var files []*ast.File
	for _, ent := range ents {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".go") || !tests && strings.HasSuffix(ent.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, ent.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil, nil, fmt.Errorf("no .go files in %s", dir)
	}
	info := newInfo()
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, nil, err
	}
	return pkg, files, info, nil
}

var wantRe = regexp.MustCompile(`// want (".*")\s*$`)

// expectation is one `// want "re"` comment.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// runFixture loads each testdata/src/<pkgpath>, runs the analyzer over
// them via the full driver (so ignore directives and staleness checks
// behave as in production), and asserts that diagnostics and `// want`
// expectations match one-to-one. Each package is type-checked against
// its own fresh load of its imports, as the standalone driver's export
// data gives them, so a whole-program analyzer sees one declaration as
// a different object in every package that uses it.
func runFixture(t *testing.T, testdata string, a *Analyzer, pkgpaths ...string) {
	t.Helper()
	_, std := stdlibImporter()
	fset := token.NewFileSet()
	srcroot := filepath.Join(testdata, "src")
	var units []unit
	var wants []*expectation
	for _, pkgpath := range pkgpaths {
		fi := &fixtureImporter{srcroot: srcroot, fset: fset, std: std, loaded: map[string]*types.Package{}}
		pkg, files, info, err := loadDir(fset, filepath.Join(srcroot, pkgpath), pkgpath, fi, true)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", pkgpath, err)
		}
		units = append(units, unit{files, pkg, info})
		wants = append(wants, collectWants(t, fset, files)...)
	}
	diags := runUnits(fset, units, []*Analyzer{a}, true)

	var unexpected []string
	for _, d := range diags {
		p := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if w.hit || w.file != p.Filename || w.line != p.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			unexpected = append(unexpected, fmt.Sprintf("%s:%d: [%s] %s", filepath.Base(p.Filename), p.Line, d.Analyzer, d.Message))
		}
	}
	sort.Strings(unexpected)
	for _, u := range unexpected {
		t.Errorf("unexpected diagnostic: %s", u)
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", filepath.Base(w.file), w.line, w.re)
		}
	}
}

// collectWants extracts `// want "re"` expectations from fixture
// comments. A want trailing other content (code, or another directive
// in the same comment) applies to its own line; a pure want comment
// alone on its line applies to the line below it — the only way to
// attach an expectation to a line that is itself a comment, e.g. a
// malformed //scaldift:ignore.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*expectation {
	t.Helper()
	lineCache := map[string][]string{}
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				var pat string
				if _, err := fmt.Sscanf(m[1], "%q", &pat); err != nil {
					t.Fatalf("bad want pattern %s: %v", m[1], err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("bad want regexp %q: %v", pat, err)
				}
				p := fset.Position(c.Pos())
				line := p.Line
				if strings.HasPrefix(c.Text, "// want") && standsAlone(t, lineCache, p) {
					line++
				}
				wants = append(wants, &expectation{file: p.Filename, line: line, re: re})
			}
		}
	}
	return wants
}

// standsAlone reports whether only whitespace precedes position p on
// its source line.
func standsAlone(t *testing.T, cache map[string][]string, p token.Position) bool {
	t.Helper()
	lines, ok := cache[p.Filename]
	if !ok {
		data, err := os.ReadFile(p.Filename)
		if err != nil {
			t.Fatalf("rereading fixture %s: %v", p.Filename, err)
		}
		lines = strings.Split(string(data), "\n")
		cache[p.Filename] = lines
	}
	if p.Line-1 >= len(lines) || p.Column-1 > len(lines[p.Line-1]) {
		return false
	}
	return strings.TrimSpace(lines[p.Line-1][:p.Column-1]) == ""
}
