// Command docslint keeps the repo's documentation honest with three
// checks, all pure standard library:
//
//   - Package docs: every Go package under internal/ and cmd/ must
//     carry a package doc comment in at least one non-test file.
//     These comments are where each package states its role in the
//     paper's design and its concurrency invariants (see
//     docs/ARCHITECTURE.md); a package without one is a subsystem the
//     next reader has to reverse-engineer.
//   - Relative links: every relative markdown link in README.md,
//     ROADMAP.md, CHANGES.md, and docs/*.md must resolve to a file or
//     directory in the repo. Dead relative links are how doc rot
//     starts — the CI docs-lint step fails on them.
//   - Symbol references: every backticked `pkg.Name` or
//     `pkg.Type.Member` in README.md and docs/*.md whose pkg is a
//     directory under internal/ or cmd/ must name a top-level
//     declaration (or a method or field of one) in that package's
//     non-test files. A doc that still explains a deleted function is
//     worse than no doc. ROADMAP.md and CHANGES.md are history and
//     exempt.
//
// Usage:
//
//	docslint [repo-root]
//
// Exit code 1 means findings, 2 means the tool itself failed.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	findings, err := Lint(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docslint:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "docslint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// Lint runs every check under root and returns human-readable
// findings, one per problem, in walk order.
func Lint(root string) ([]string, error) {
	var findings []string
	pkg, err := lintPackageDocs(root)
	if err != nil {
		return nil, err
	}
	findings = append(findings, pkg...)
	links, err := lintRelativeLinks(root)
	if err != nil {
		return nil, err
	}
	findings = append(findings, links...)
	syms, err := lintSymbolRefs(root)
	if err != nil {
		return nil, err
	}
	findings = append(findings, syms...)
	return findings, nil
}

// packageDirs lists every directory under internal/ and cmd/,
// testdata trees excluded, in walk order.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	for _, top := range []string{"internal", "cmd"} {
		base := filepath.Join(root, top)
		if _, err := os.Stat(base); os.IsNotExist(err) {
			continue
		}
		err := filepath.WalkDir(base, func(dir string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			dirs = append(dirs, dir)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

// nonTestGoFiles lists dir's Go files that are not tests.
func nonTestGoFiles(dir string) []string {
	all, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	files := all[:0]
	for _, f := range all {
		if !strings.HasSuffix(f, "_test.go") {
			files = append(files, f)
		}
	}
	return files
}

// lintPackageDocs walks internal/ and cmd/ for Go package directories
// lacking a package doc comment in every non-test file.
func lintPackageDocs(root string) ([]string, error) {
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	var findings []string
	for _, dir := range dirs {
		files := nonTestGoFiles(dir)
		hasDoc := false
		for _, file := range files {
			f, err := parser.ParseFile(token.NewFileSet(), file, nil,
				parser.ParseComments|parser.PackageClauseOnly)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", file, err)
			}
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				hasDoc = true
				break
			}
		}
		if len(files) > 0 && !hasDoc {
			rel, _ := filepath.Rel(root, dir)
			findings = append(findings, fmt.Sprintf("%s: package has no package doc comment in any non-test file", rel))
		}
	}
	return findings, nil
}

// linkRe matches markdown inline links and images: [text](target).
// Code spans are stripped before matching, so `[x](y)` in backticks
// is not a link.
var (
	linkRe     = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)
	codeSpanRe = regexp.MustCompile("`[^`]*`")
)

// lintRelativeLinks checks that relative links in the repo's top-level
// markdown files and docs/ resolve.
func lintRelativeLinks(root string) ([]string, error) {
	var files []string
	for _, name := range []string{"README.md", "ROADMAP.md", "CHANGES.md", "PAPER.md"} {
		p := filepath.Join(root, name)
		if _, err := os.Stat(p); err == nil {
			files = append(files, p)
		}
	}
	docs, _ := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	files = append(files, docs...)

	var findings []string
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		rel, _ := filepath.Rel(root, file)
		inFence := false
		for i, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				inFence = !inFence
				continue
			}
			if inFence {
				continue
			}
			line = codeSpanRe.ReplaceAllString(line, "")
			for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if strings.Contains(target, "://") || strings.HasPrefix(target, "#") ||
					strings.HasPrefix(target, "mailto:") {
					continue
				}
				if h := strings.IndexByte(target, '#'); h >= 0 {
					target = target[:h]
				}
				if target == "" {
					continue
				}
				resolved := filepath.Join(filepath.Dir(file), target)
				if _, err := os.Stat(resolved); err != nil {
					findings = append(findings, fmt.Sprintf("%s:%d: relative link %q does not resolve", rel, i+1, m[1]))
				}
			}
		}
	}
	return findings, nil
}

// pkgDecls is what one package directory declares in its non-test
// files, as far as the parser alone can tell.
type pkgDecls struct {
	dir    string
	names  map[string]bool     // "Name" for funcs, types, consts, vars; "Type.Member" for methods and fields
	embeds map[string][]string // type → embedded type names
}

// has reports whether member is declared on typ or on a type of the
// same package typ embeds.
func (p *pkgDecls) has(typ, member string, depth int) bool {
	if p.names[typ+"."+member] {
		return true
	}
	if depth < 4 {
		for _, e := range p.embeds[typ] {
			if p.has(e, member, depth+1) {
				return true
			}
		}
	}
	return false
}

// add records the declarations of one file.
func (p *pkgDecls) add(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			name := n.Name.Name
			if n.Recv != nil && len(n.Recv.List) == 1 {
				name = typeName(n.Recv.List[0].Type) + "." + name
			}
			p.names[name] = true
			return false // what a body declares is not the package's
		case *ast.ValueSpec:
			for _, id := range n.Names {
				p.names[id.Name] = true
			}
		case *ast.TypeSpec:
			typ := n.Name.Name
			p.names[typ] = true
			var fields *ast.FieldList
			switch t := n.Type.(type) {
			case *ast.StructType:
				fields = t.Fields
			case *ast.InterfaceType:
				fields = t.Methods
			default:
				return false
			}
			for _, fld := range fields.List {
				for _, id := range fld.Names {
					p.names[typ+"."+id.Name] = true
				}
				if len(fld.Names) == 0 {
					e := typeName(fld.Type)
					p.names[typ+"."+e] = true
					p.embeds[typ] = append(p.embeds[typ], e)
				}
			}
			return false
		}
		return true
	})
}

// typeName strips pointers, type arguments and package qualifiers
// from a receiver or embedded-field type expression.
func typeName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.SelectorExpr:
			return t.Sel.Name
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// loadDecls parses every package directory under internal/ and cmd/
// and indexes it by directory base name, the qualifier docs use.
func loadDecls(root string) (map[string][]*pkgDecls, error) {
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	pkgs := map[string][]*pkgDecls{}
	for _, dir := range dirs {
		rel, _ := filepath.Rel(root, dir)
		p := &pkgDecls{dir: rel, names: map[string]bool{}, embeds: map[string][]string{}}
		for _, file := range nonTestGoFiles(dir) {
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			p.add(f)
		}
		if len(p.names) > 0 {
			name := filepath.Base(dir)
			pkgs[name] = append(pkgs[name], p)
		}
	}
	return pkgs, nil
}

// symRefRe matches pkg.Name and pkg.Type.Member inside a code span;
// Name is exported, which keeps metric names (`vm.batches`) and file
// names (`record.go`) out.
var (
	symRefRe = regexp.MustCompile(`(?:^|[^\w.])(\w+)\.([A-Z]\w*)(?:\.([A-Za-z_]\w*))?`)
	fenceRe  = regexp.MustCompile("(?ms)^[ \t]*```.*?^[ \t]*```[ \t]*$")
)

// lintSymbolRefs checks that backticked references into the repo's
// own packages in README.md and docs/*.md still name something.
func lintSymbolRefs(root string) ([]string, error) {
	files, _ := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	readme := filepath.Join(root, "README.md")
	if _, err := os.Stat(readme); err == nil {
		files = append([]string{readme}, files...)
	}
	pkgs, err := loadDecls(root)
	if err != nil {
		return nil, err
	}
	var findings []string
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		rel, _ := filepath.Rel(root, file)
		// Blank fenced blocks (sample programs with their own local
		// names) but keep their newlines, so offsets still count lines.
		text := fenceRe.ReplaceAllStringFunc(string(data), func(block string) string {
			return strings.Repeat("\n", strings.Count(block, "\n"))
		})
		for _, span := range codeSpanRe.FindAllStringIndex(text, -1) {
			code := text[span[0]+1 : span[1]-1]
			for _, m := range symRefRe.FindAllStringSubmatch(code, -1) {
				cands := pkgs[m[1]]
				if len(cands) == 0 {
					continue
				}
				ok := false
				for _, p := range cands {
					if p.names[m[2]] && (m[3] == "" || p.has(m[2], m[3], 0)) {
						ok = true
					}
				}
				if !ok {
					ref := strings.TrimSuffix(strings.Join(m[1:], "."), ".")
					line := 1 + strings.Count(text[:span[0]], "\n")
					findings = append(findings, fmt.Sprintf("%s:%d: `%s` names nothing declared in %s", rel, line, ref, cands[0].dir))
				}
			}
		}
	}
	return findings, nil
}
