package main_test

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestRepoIsVetClean builds scaldiftvet and runs it (standalone mode)
// over the whole repo, the nested bench/ module included so that
// deadexport counts its uses: the suite must come back clean, with no
// stale //scaldift:ignore directives. This is the same gate CI's vet-custom
// step enforces through `go vet -vettool=`; keeping a copy in the
// test suite means a finding introduced locally fails `go test ./...`
// before it ever reaches CI.
func TestRepoIsVetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the vet binary over every package")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "scaldiftvet")

	build := exec.Command("go", "build", "-o", bin, "./cmd/scaldiftvet")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building scaldiftvet: %v\n%s", err, out)
	}

	vet := exec.Command(bin, "./...", "./bench/...")
	vet.Dir = root
	var stdout, stderr bytes.Buffer
	vet.Stdout = &stdout
	vet.Stderr = &stderr
	if err := vet.Run(); err != nil {
		t.Fatalf("scaldiftvet ./... ./bench/... reported findings: %v\nstdout:\n%s\nstderr:\n%s",
			err, stdout.Bytes(), stderr.Bytes())
	}
}
