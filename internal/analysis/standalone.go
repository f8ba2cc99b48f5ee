package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// This file implements `scaldiftvet ./...` without go vet: it shells
// out to `go list -deps -export -json` for the package graph and the
// compiled export data of every dependency, then typechecks the
// matched packages from source and runs the suite over all of them at
// once, whole-program analyzers included. A pattern rooted in a
// directory with its own go.mod (`./bench/...`) names a nested module:
// it gets its own go list, run in that directory. Test files are not
// loaded in this mode (go list's GoFiles excludes them); the go vet
// path is the one that covers _test.go.

// listPkg is the subset of `go list -json` output the driver reads.
type listPkg struct {
	Dir        string
	ImportPath string
	Standard   bool
	DepOnly    bool
	Export     string
	GoFiles    []string
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

func runStandalone(patterns []string) int {
	// Group the patterns by module root, keeping their order.
	var roots []string
	byRoot := map[string][]string{}
	for _, pat := range patterns {
		root, rel := ".", pat
		dir := strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil && filepath.Clean(dir) != "." {
			root, rel = dir, "."+strings.TrimPrefix(pat, dir)
		}
		if byRoot[root] == nil {
			roots = append(roots, root)
		}
		byRoot[root] = append(byRoot[root], rel)
	}

	fset := token.NewFileSet()
	var units []unit
	for _, root := range roots {
		u, err := loadRoot(fset, root, byRoot[root])
		if err != nil {
			fmt.Fprintf(os.Stderr, "scaldiftvet: %v\n", err)
			return 1
		}
		units = append(units, u...)
	}
	return reportDiags(fset, runUnits(fset, units, Suite(), true))
}

// loadRoot lists patterns in the module at root and typechecks every
// matched package from source against its dependencies' export data.
func loadRoot(fset *token.FileSet, root string, patterns []string) ([]unit, error) {
	args := append([]string{"list", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v", root, err)
	}

	exports := map[string]string{}
	var targets []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			targets = append(targets, &p)
		}
	}

	var units []unit
	for _, p := range targets {
		u, err := checkFromSource(fset, p, exports)
		if err != nil {
			return nil, err
		}
		if len(u.files) > 0 {
			units = append(units, u)
		}
	}
	return units, nil
}

func checkFromSource(fset *token.FileSet, p *listPkg, exports map[string]string) (unit, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return unit{}, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return unit{}, nil
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if canon, ok := p.ImportMap[path]; ok {
			path = canon
		}
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", lookup)}
	info := newInfo()
	pkg, err := conf.Check(p.ImportPath, fset, files, info)
	if err != nil {
		return unit{}, fmt.Errorf("typechecking %s: %v", p.ImportPath, err)
	}
	return unit{files, pkg, info}, nil
}
