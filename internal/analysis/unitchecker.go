package analysis

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// This file implements the `go vet -vettool=` side of the driver: the
// unitchecker protocol. cmd/go interrogates the tool with -V=full (for
// the build cache key) and -flags (for supported flags), then invokes
// it once per package with a single *.cfg argument describing the
// compilation unit: file lists, the import map, and the export-data
// files of every dependency. The tool typechecks the unit with the gc
// importer, runs the analyzer suite, prints findings to stderr, and
// exits 2 when there are any — exactly the contract go vet expects.

// vetConfig is the subset of the JSON cmd/go writes for vet tools
// that the driver reads.
type vetConfig struct {
	Compiler                  string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Main is the scaldiftvet entry point; it returns the process exit
// code. It dispatches between the three unitchecker calls and the
// standalone `scaldiftvet ./...` mode.
func Main(args []string) int {
	for _, a := range args {
		switch {
		case a == "-V=full" || a == "--V=full":
			printVersion()
			return 0
		case a == "-flags" || a == "--flags":
			fmt.Println("[]")
			return 0
		}
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		return runUnit(args[0])
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	return runStandalone(args)
}

// printVersion emits the -V=full line cmd/go hashes into its build
// cache key. The buildID is the executable's content hash, so
// rebuilding the tool invalidates cached vet results.
func printVersion() {
	progname := filepath.Base(os.Args[0])
	h := sha256.New()
	if f, err := os.Open(os.Args[0]); err == nil {
		io.Copy(h, f)
		f.Close()
	}
	fmt.Printf("%s version devel comments-go-here buildID=%x\n", progname, h.Sum(nil))
}

func runUnit(cfgFile string) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scaldiftvet: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "scaldiftvet: parsing %s: %v\n", cfgFile, err)
		return 1
	}
	// cmd/go requires the vetx (facts) output to exist on success even
	// though this suite exports no facts.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "scaldiftvet: %v\n", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0 // dependency unit: facts only, no analysis requested
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintf(os.Stderr, "scaldiftvet: %v\n", err)
			return 1
		}
		files = append(files, f)
	}

	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if canon, ok := cfg.ImportMap[path]; ok {
			path = canon
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	conf := types.Config{
		Importer:  importer.ForCompiler(fset, compiler, lookup),
		GoVersion: cfg.GoVersion,
	}
	info := newInfo()
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "scaldiftvet: typechecking %s: %v\n", cfg.ImportPath, err)
		return 1
	}

	diags := runUnits(fset, []unit{{files, pkg, info}}, Suite(), false)
	return reportDiags(fset, diags)
}

// reportDiags prints findings in the file:line:col form go vet
// surfaces, returning the exit code (2 = findings, matching vet).
func reportDiags(fset *token.FileSet, diags []Diagnostic) int {
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
