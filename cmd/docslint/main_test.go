package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoIsClean is the self-enforcing check: the repo this tool
// ships in must itself pass every lint. A new internal package
// without a package doc, a doc edit that breaks a relative link, or a
// doc that still names a deleted declaration fails here (and in the
// CI docs-lint step) immediately.
func TestRepoIsClean(t *testing.T) {
	findings, err := Lint("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("docslint finding in repo: %s", f)
	}
}

func write(t *testing.T, root, rel, content string) {
	t.Helper()
	p := filepath.Join(root, rel)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestPackageDocDetection(t *testing.T) {
	root := t.TempDir()
	write(t, root, "internal/documented/doc.go", "// Package documented has a doc.\npackage documented\n")
	write(t, root, "internal/bare/bare.go", "package bare\n\nfunc F() {}\n")
	// A package whose only doc comment sits in a test file is still bare.
	write(t, root, "internal/testonly/x.go", "package testonly\n")
	write(t, root, "internal/testonly/x_test.go", "// Package testonly documents itself only in tests.\npackage testonly\n")
	// testdata trees are not packages of the repo.
	write(t, root, "internal/documented/testdata/fix/fix.go", "package fix\n")

	findings, err := Lint(root)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, f)
	}
	if len(got) != 2 {
		t.Fatalf("findings = %v, want exactly the two undocumented packages", got)
	}
	for _, want := range []string{"internal/bare", "internal/testonly"} {
		found := false
		for _, f := range got {
			if strings.HasPrefix(f, want+":") {
				found = true
			}
		}
		if !found {
			t.Errorf("no finding for %s in %v", want, got)
		}
	}
}

func TestRelativeLinkDetection(t *testing.T) {
	root := t.TempDir()
	write(t, root, "docs/GOOD.md", "# good\n")
	write(t, root, "README.md", strings.Join([]string{
		"[ok](docs/GOOD.md) and [anchored](docs/GOOD.md#good)",
		"[web](https://example.com/x.md) and [frag](#local) are skipped",
		"[dead](docs/MISSING.md)",
		"```",
		"[fenced](docs/ALSO_MISSING.md)",
		"```",
		"`[span](docs/ALSO_MISSING.md)` stays a code span",
		"![img](docs/missing.png)",
	}, "\n"))

	findings, err := Lint(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 2 {
		t.Fatalf("findings = %v, want the dead link and the dead image only", findings)
	}
	if !strings.Contains(findings[0], "docs/MISSING.md") || !strings.Contains(findings[1], "docs/missing.png") {
		t.Fatalf("findings = %v", findings)
	}
	// Links inside docs/ resolve relative to docs/.
	write(t, root, "docs/REF.md", "[up](../README.md) [sib](GOOD.md) [no](nope.md)\n")
	findings, err = Lint(root)
	if err != nil {
		t.Fatal(err)
	}
	dead := 0
	for _, f := range findings {
		if strings.Contains(f, "nope.md") {
			dead++
		}
		if strings.Contains(f, "GOOD.md\" does not resolve") || strings.Contains(f, "README.md\" does not resolve") {
			t.Errorf("resolvable link flagged: %s", f)
		}
	}
	if dead != 1 {
		t.Errorf("findings = %v, want one for nope.md", findings)
	}
}

func TestSymbolRefDetection(t *testing.T) {
	root := t.TempDir()
	write(t, root, "internal/pipe/pipe.go", `// Package pipe is the fixture.
package pipe

const Depth = 16

type base struct{ Shared int }

type Consumer[T any] struct {
	base
	Queue int
}

func (c *Consumer[T]) Attach() {}

func New() {}
`)
	// A name only a test file declares is not documentation material.
	write(t, root, "internal/pipe/pipe_test.go", "package pipe\n\nfunc WalkSeq() {}\n")
	write(t, root, "README.md", strings.Join([]string{
		"`pipe.New`, `pipe.Depth`, `pipe.Consumer.Attach`, `pipe.Consumer.Queue` and the",
		"promoted `pipe.Consumer.Shared` resolve, as does `x := pipe.New(pipe.Depth)`.",
		"`pipe.events` is a metric, `http.MaxBytesReader` and `b.Events` are not ours,",
		"and pipe.WalkSeq outside a code span is prose.",
		"```",
		"pipe.Fenced()",
		"```",
		"`pipe.WalkSeq` and `pipe.Consumer.Window` are gone.",
	}, "\n"))
	// History files may name what no longer exists.
	write(t, root, "CHANGES.md", "deleted `pipe.WalkSeq`\n")

	findings, err := Lint(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 2 ||
		!strings.HasPrefix(findings[0], "README.md:8: `pipe.WalkSeq`") ||
		!strings.HasPrefix(findings[1], "README.md:8: `pipe.Consumer.Window`") {
		t.Fatalf("findings = %q, want the two dead references on line 8", findings)
	}
}
