// Command scaldiftvet runs the repo's project-specific analyzer suite
// (poolescape, lockio, cancelpoll, stickyerr, deadexport — see
// internal/analysis).
//
// Two modes:
//
//	go vet -vettool=$(which scaldiftvet) ./...   # per package, including _test.go
//	scaldiftvet ./... ./bench/...                # standalone, non-test files only
//
// The standalone mode loads every matched package at once, so it alone
// runs the whole-program deadexport analyzer. A pattern rooted in a
// directory with its own go.mod (./bench/...) gets its own go list run
// there, so the nested module's uses count.
//
// Exit code 2 means findings; suppress a deliberate exception with
// //scaldift:ignore <analyzer> <reason> on (or directly above) the
// flagged line.
package main

import (
	"os"

	"scaldift/internal/analysis"
)

func main() {
	os.Exit(analysis.Main(os.Args[1:]))
}
