package analysis

import "testing"

func TestPoolEscape(t *testing.T) {
	runFixture(t, "testdata/poolescape", PoolEscape, "a")
}

func TestLockIO(t *testing.T) {
	runFixture(t, "testdata/lockio", LockIO, "a")
}

func TestCancelPoll(t *testing.T) {
	runFixture(t, "testdata/cancelpoll", CancelPoll, "slicing")
}

func TestStickyErr(t *testing.T) {
	runFixture(t, "testdata/stickyerr", StickyErr, "store")
}

func TestDeadExport(t *testing.T) {
	runFixture(t, "testdata/deadexport", DeadExport, "a", "b", "bench/c")
}

func TestSuiteNamesAreUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range Suite() {
		if a.Name == "" || a.Run == nil && a.runProgram == nil {
			t.Errorf("analyzer %+v incomplete", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	if len(seen) < 5 {
		t.Errorf("suite has %d analyzers, want at least 5", len(seen))
	}
}
