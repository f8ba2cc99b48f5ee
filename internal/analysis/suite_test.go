package analysis_test

import (
	"testing"

	"scaldift/internal/analysis"
	"scaldift/internal/analysis/antest"
)

func TestPoolEscape(t *testing.T) {
	antest.Run(t, "testdata/poolescape", analysis.PoolEscape, "a")
}

func TestLockIO(t *testing.T) {
	antest.Run(t, "testdata/lockio", analysis.LockIO, "a")
}

func TestCancelPoll(t *testing.T) {
	antest.Run(t, "testdata/cancelpoll", analysis.CancelPoll, "slicing")
}

func TestStickyErr(t *testing.T) {
	antest.Run(t, "testdata/stickyerr", analysis.StickyErr, "store")
}

func TestSuiteNamesAreUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range analysis.Suite() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incomplete", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	if len(seen) < 4 {
		t.Errorf("suite has %d analyzers, want at least 4", len(seen))
	}
}
