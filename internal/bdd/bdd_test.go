package bdd

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestSingletonContains(t *testing.T) {
	m := NewManager(10)
	for _, x := range []int64{345, 0, 1023, 344, 345} {
		s := m.Singleton(x)
		if got := m.Elements(s, nil); len(got) != 1 || got[0] != x {
			t.Fatalf("Singleton(%d) = %v", x, got)
		}
		if m.Count(s) != 1 {
			t.Fatalf("count = %d", m.Count(s))
		}
	}
}

func TestEmptyAndUniverse(t *testing.T) {
	m := NewManager(8)
	if m.Count(False) != 0 || len(m.Elements(False, nil)) != 0 {
		t.Fatal("empty set has members")
	}
	if m.Count(True) != 256 {
		t.Fatalf("universe count = %d", m.Count(True))
	}
	for i, x := range m.Elements(True, nil) {
		if x != int64(i) {
			t.Fatalf("universe element %d = %d", i, x)
		}
	}
}

// TestSingletonRunIsLinear pins the singleton chain memo: consecutive
// elements share every level above their lowest differing bit, so a
// run of N singletons allocates about 2 nodes each, not one per bit.
func TestSingletonRunIsLinear(t *testing.T) {
	const bits, n = 30, 4096
	m := NewManager(bits)
	for x := int64(1 << 20); x < 1<<20+n; x++ {
		m.Singleton(x)
	}
	if got, limit := m.NumNodes(), 2*n+bits+2; got > limit {
		t.Fatalf("%d singletons hold %d nodes, want ≤ %d", n, got, limit)
	}
}

func TestUnionIntersectDiff(t *testing.T) {
	m := NewManager(8)
	a := m.Union(m.Singleton(1), m.Union(m.Singleton(2), m.Singleton(3)))
	b := m.Union(m.Singleton(3), m.Union(m.Singleton(4), m.Singleton(5)))
	u := m.Union(a, b)
	if m.Count(u) != 5 {
		t.Fatalf("union count = %d", m.Count(u))
	}
	i := m.Intersect(a, b)
	if m.Count(i) != 1 || m.Elements(i, nil)[0] != 3 {
		t.Fatalf("intersect = %v", m.Elements(i, nil))
	}
	d := m.Diff(a, b)
	if got := m.Elements(d, nil); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("diff = %v", got)
	}
}

func TestCanonicity(t *testing.T) {
	m := NewManager(12)
	// Same set built two ways must be the same handle.
	a := m.Union(m.Singleton(7), m.Singleton(100))
	b := m.Union(m.Singleton(100), m.Singleton(7))
	if a != b {
		t.Fatal("hash-consing broken: same set, different handles")
	}
	c := m.Interval(5, 9)
	d := m.Union(m.Singleton(5), m.Union(m.Singleton(6),
		m.Union(m.Singleton(7), m.Union(m.Singleton(8), m.Singleton(9)))))
	if c != d {
		t.Fatal("interval and element-wise union differ")
	}
}

func TestInterval(t *testing.T) {
	m := NewManager(10)
	s := m.Interval(100, 200)
	if m.Count(s) != 101 {
		t.Fatalf("count = %d", m.Count(s))
	}
	if got := m.Elements(s, nil); got[0] != 100 || got[len(got)-1] != 200 {
		t.Fatalf("interval bounds wrong: %d..%d", got[0], got[len(got)-1])
	}
	if m.Interval(-7, 3) != m.Interval(0, 3) || m.Interval(1000, 5000) != m.Interval(1000, 1023) {
		t.Fatal("interval not clipped to the universe")
	}
	if m.Interval(5, 4) != False {
		t.Fatal("reversed interval should be empty")
	}
	full := m.Interval(0, 1023)
	if full != True {
		t.Fatal("full interval should be the universe terminal")
	}
}

func TestIntervalCompactness(t *testing.T) {
	m := NewManager(20)
	// A contiguous run of 10k elements must be tiny; a same-size
	// scattered set must not be. This is the clustering property the
	// lineage application exploits.
	run := m.Interval(100000, 110000)
	runSize := m.NodeSize(run)
	if runSize > 4*20 {
		t.Fatalf("interval BDD has %d nodes, want O(bits)", runSize)
	}
	scattered := False
	for i := int64(0); i < 2000; i++ {
		scattered = m.Union(scattered, m.Singleton(i*397%1000000))
	}
	if m.NodeSize(scattered) <= runSize {
		t.Fatalf("scattered set (%d nodes) should dwarf interval (%d nodes)",
			m.NodeSize(scattered), runSize)
	}
}

func TestElementsSorted(t *testing.T) {
	m := NewManager(10)
	want := []int64{3, 17, 18, 19, 512, 1000}
	s := False
	for _, x := range want {
		s = m.Union(s, m.Singleton(x))
	}
	got := m.Elements(s, nil)
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("not sorted: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestSetAlgebraProperties(t *testing.T) {
	m := NewManager(10)
	mk := func(xs []uint16) Ref {
		s := False
		for _, x := range xs {
			s = m.Union(s, m.Singleton(int64(x%1024)))
		}
		return s
	}
	// Union is commutative, associative, idempotent; De Morgan-ish
	// identity: (a∪b)\b == a\b; |a∪b| = |a|+|b|-|a∩b|.
	f := func(xa, xb, xc []uint16) bool {
		a, b, c := mk(xa), mk(xb), mk(xc)
		if m.Union(a, b) != m.Union(b, a) {
			return false
		}
		if m.Union(a, m.Union(b, c)) != m.Union(m.Union(a, b), c) {
			return false
		}
		if m.Union(a, a) != a {
			return false
		}
		if m.Diff(m.Union(a, b), b) != m.Diff(a, b) {
			return false
		}
		if m.Count(m.Union(a, b))+m.Count(m.Intersect(a, b)) != m.Count(a)+m.Count(b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestElementsMatchModel(t *testing.T) {
	m := NewManager(9)
	f := func(xs []uint16) bool {
		ref := map[int64]bool{}
		s := False
		for _, x := range xs {
			v := int64(x % 512)
			ref[v] = true
			s = m.Union(s, m.Singleton(v))
		}
		if m.Count(s) != uint64(len(ref)) {
			return false
		}
		got := m.Elements(s, nil)
		if len(got) != len(ref) {
			return false
		}
		for _, v := range got {
			if !ref[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSharingAcrossSets(t *testing.T) {
	m := NewManager(16)
	base := m.Interval(0, 999)
	before := m.NumNodes()
	// 100 sets sharing the same 1000-element base plus one extra
	// element: overlap should make the marginal cost tiny.
	for i := int64(0); i < 100; i++ {
		m.Union(base, m.Singleton(30000+i))
	}
	grown := m.NumNodes() - before
	if grown > 100*3*16 {
		t.Fatalf("sharing failed: %d nodes added for 100 overlapping sets", grown)
	}
}

func TestDiffWithUniverse(t *testing.T) {
	m := NewManager(8)
	a := m.Union(m.Singleton(10), m.Singleton(20))
	comp := m.Diff(True, a)
	if m.Count(comp) != 254 {
		t.Fatalf("complement count = %d", m.Count(comp))
	}
	if got := m.Elements(comp, nil); got[10] != 11 || got[19] != 21 {
		t.Fatal("complement membership wrong")
	}
	if m.Intersect(comp, a) != False {
		t.Fatal("complement should be disjoint")
	}
}

func BenchmarkUnionClustered(b *testing.B) {
	m := NewManager(24)
	sets := make([]Ref, 64)
	for i := range sets {
		sets[i] = m.Interval(int64(i*1000), int64(i*1000+800))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := False
		for _, x := range sets {
			s = m.Union(s, x)
		}
	}
}

// BenchmarkSingletonSequential mints one singleton per input index in
// order, as lineage.Domain.Source does for a stream of input words.
func BenchmarkSingletonSequential(b *testing.B) {
	m := NewManager(24)
	x := int64(0)
	for b.Loop() {
		m.Singleton(x)
		x = (x + 1) & (1<<24 - 1)
	}
}
