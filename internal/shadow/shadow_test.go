package shadow

import (
	"testing"
	"testing/quick"
)

func TestGetSetClear(t *testing.T) {
	m := NewMem[bool]()
	if m.Get(100) {
		t.Fatal("fresh memory should be untainted")
	}
	m.Set(100, true)
	if !m.Get(100) {
		t.Fatal("set lost")
	}
	if m.Tainted() != 1 || len(m.pages) != 1 {
		t.Fatalf("tainted=%d pages=%d", m.Tainted(), len(m.pages))
	}
	m.Set(100, false)
	if m.Get(100) || m.Tainted() != 0 {
		t.Fatal("unset failed")
	}
}

func TestZeroWriteAllocatesNothing(t *testing.T) {
	m := NewMem[int32]()
	for a := int64(0); a < 1<<20; a += 1 << PageBits {
		m.Set(a, 0)
	}
	if len(m.pages) != 0 {
		t.Fatalf("zero writes allocated %d pages", len(m.pages))
	}
}

func TestSparsePages(t *testing.T) {
	m := NewMem[int32]()
	m.Set(0, 1)
	m.Set(1<<30, 2)
	if len(m.pages) != 2 {
		t.Fatalf("pages = %d, want 2", len(m.pages))
	}
	if m.Get(0) != 1 || m.Get(1<<30) != 2 {
		t.Fatal("values lost")
	}
}

func TestTaintedCountProperty(t *testing.T) {
	// Property: after any sequence of sets, Tainted equals the number
	// of addresses with a non-zero value.
	f := func(addrs []uint16, vals []int8) bool {
		m := NewMem[int8]()
		ref := map[int64]int8{}
		for i, a := range addrs {
			var v int8
			if i < len(vals) {
				v = vals[i]
			}
			m.Set(int64(a), v)
			if v == 0 {
				delete(ref, int64(a))
			} else {
				ref[int64(a)] = v
			}
		}
		if m.Tainted() != len(ref) {
			return false
		}
		for a, v := range ref {
			if m.Get(a) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
