// Command scaldiftvet runs the repo's project-specific analyzer suite
// (poolescape, lockio, cancelpoll, stickyerr — see
// internal/analysis).
//
// Two modes:
//
//	go vet -vettool=$(which scaldiftvet) ./...   # full coverage, including _test.go
//	scaldiftvet ./...                            # standalone, non-test files only
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
