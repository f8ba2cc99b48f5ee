// Package bdd implements reduced ordered binary decision diagrams
// (roBDDs) specialized for representing sets of small non-negative
// integers — the lineage sets of §3.4 / [12] of the paper.
//
// A set S ⊆ {0..2^bits-1} is encoded as the boolean function that is
// true exactly on the binary encodings of S's elements, with the most
// significant bit as the top variable. The paper's two observations —
// lineage sets of live values overlap heavily, and the input indices
// in a set are clustered — are exactly the cases where this encoding
// collapses: shared subsets share subgraphs, and a contiguous run of
// indices needs O(bits) nodes rather than O(run length).
//
// Nodes are hash-consed in a manager table, so set equality is
// pointer (handle) equality and memory is shared across all sets.
package bdd

import "fmt"

// Ref is a handle to a BDD node owned by a Manager. The constants
// False and True are the terminal nodes.
type Ref int32

// Terminal nodes.
const (
	False Ref = 0
	True  Ref = 1
)

type node struct {
	level int32 // variable index, 0 = most significant bit
	lo    Ref   // child when the variable is 0
	hi    Ref   // child when the variable is 1
}

const (
	opUnion uint8 = iota
	opIntersect
	opDiff
)

// opEntry is one slot of the direct-mapped computed table: the last
// result of `op` applied to (a, b) that hashed here. Slots are lossy —
// a colliding operation overwrites — which only ever costs a
// recomputation, never correctness: operation results are canonical
// refs regardless of how they were (re)derived.
type opEntry struct {
	a, b Ref
	op   uint8
	ok   bool
	r    Ref
}

// Manager owns the node table and operation caches for one BDD space.
// It is not safe for concurrent use.
//
// The unique table and computed table are hand-rolled open-addressed /
// direct-mapped arrays rather than Go maps: every propagation step of
// the lineage domain funnels into mk and the set operations, and on
// those paths the runtime map's hashing and probing dominated the
// whole analyze stage of the offloaded pipeline (see docs/PERF.md).
type Manager struct {
	bits  int
	nodes []node
	// unique is the hash-consing table: open-addressed, power-of-two
	// sized, storing Refs (0 = empty slot; the terminals are never
	// consed). The node a slot identifies lives in nodes[ref].
	unique  []Ref
	uniqLen int
	// ops is the direct-mapped computed table for Union / Intersect /
	// Diff. It is reallocated (entries dropped) when the node table
	// grows, keeping its size proportional to the working set.
	ops    []opEntry
	counts map[Ref]uint64 // memoized set cardinalities

	// Traversal scratch reused across NodeSize/NodeSizeAll calls: a
	// node is visited in the current traversal iff seen[ref] == stamp.
	// Avoids allocating a map per query on hot reporting paths.
	seen  []uint32
	stamp uint32
}

const (
	initialUniqueSlots = 1 << 10
	initialOpSlots     = 1 << 10
	maxOpSlots         = 1 << 18
)

// NewManager creates a manager for sets over {0 .. 2^bits-1}.
func NewManager(bits int) *Manager {
	if bits <= 0 || bits > 62 {
		panic(fmt.Sprintf("bdd: unsupported bit width %d", bits))
	}
	m := &Manager{
		bits:   bits,
		nodes:  make([]node, 2, 1024),
		unique: make([]Ref, initialUniqueSlots),
		ops:    make([]opEntry, initialOpSlots),
		counts: make(map[Ref]uint64),
	}
	// nodes[0] and nodes[1] are the terminals; level = bits marks
	// "below the last variable".
	m.nodes[0] = node{level: int32(bits)}
	m.nodes[1] = node{level: int32(bits)}
	return m
}

// hashNode mixes a node's fields into a table index seed
// (splitmix64-style finalizer over the packed children + level).
func hashNode(level int32, lo, hi Ref) uint64 {
	h := uint64(uint32(lo)) | uint64(uint32(hi))<<32
	h ^= uint64(uint32(level)) << 21
	h *= 0x9E3779B97F4A7C15
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return h
}

// growUnique doubles the unique table and rehashes every interned
// node. The computed table is reallocated alongside (dropping its
// entries — they are only memoization) so it scales with node count.
func (m *Manager) growUnique() {
	nt := make([]Ref, len(m.unique)*2)
	mask := uint64(len(nt) - 1)
	for r := Ref(2); int(r) < len(m.nodes); r++ {
		n := m.nodes[r]
		i := hashNode(n.level, n.lo, n.hi) & mask
		for nt[i] != 0 {
			i = (i + 1) & mask
		}
		nt[i] = r
	}
	m.unique = nt
	if len(m.ops) < len(nt) && len(m.ops) < maxOpSlots {
		m.ops = make([]opEntry, len(m.ops)*2)
	}
}

// lookupOp consults the computed table for op(a, b).
func (m *Manager) lookupOp(op uint8, a, b Ref) (Ref, bool) {
	e := &m.ops[(hashNode(int32(op), a, b))&uint64(len(m.ops)-1)]
	if e.ok && e.op == op && e.a == a && e.b == b {
		return e.r, true
	}
	return 0, false
}

// storeOp records op(a, b) = r, evicting whatever hashed to the slot.
func (m *Manager) storeOp(op uint8, a, b Ref, r Ref) {
	m.ops[(hashNode(int32(op), a, b))&uint64(len(m.ops)-1)] = opEntry{a: a, b: b, op: op, ok: true, r: r}
}

// Bits returns the universe width.
func (m *Manager) Bits() int { return m.bits }

// NumNodes returns the number of live nodes (including terminals) —
// the memory figure the lineage experiments report.
func (m *Manager) NumNodes() int { return len(m.nodes) }

// mk returns the canonical node (level, lo, hi), applying the
// reduction rules: identical children collapse, duplicates share.
func (m *Manager) mk(level int32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	mask := uint64(len(m.unique) - 1)
	i := hashNode(level, lo, hi) & mask
	for {
		r := m.unique[i]
		if r == 0 {
			break
		}
		if n := m.nodes[r]; n.level == level && n.lo == lo && n.hi == hi {
			return r
		}
		i = (i + 1) & mask
	}
	r := Ref(len(m.nodes))
	m.nodes = append(m.nodes, node{level: level, lo: lo, hi: hi})
	m.unique[i] = r
	m.uniqLen++
	if m.uniqLen*4 >= len(m.unique)*3 {
		m.growUnique()
	}
	return r
}

// Empty returns the empty set.
func (m *Manager) Empty() Ref { return False }

// Universe returns the full set {0..2^bits-1}.
func (m *Manager) Universe() Ref { return True }

// Singleton returns the set {x}.
func (m *Manager) Singleton(x int64) Ref {
	if x < 0 || x >= 1<<uint(m.bits) {
		panic(fmt.Sprintf("bdd: element %d outside universe of %d bits", x, m.bits))
	}
	r := True
	for level := int32(m.bits) - 1; level >= 0; level-- {
		bit := (x >> uint(int32(m.bits)-1-level)) & 1
		if bit == 1 {
			r = m.mk(level, False, r)
		} else {
			r = m.mk(level, r, False)
		}
	}
	return r
}

// Interval returns the set {lo..hi} (inclusive). Clustered lineage
// sets are intervals, which BDDs encode in O(bits) nodes.
func (m *Manager) Interval(lo, hi int64) Ref {
	if lo > hi {
		return False
	}
	return m.interval(0, 0, int64(1)<<uint(m.bits)-1, lo, hi)
}

// interval builds the BDD for [lo,hi] restricted to the subtree at
// the given level covering values [min,max].
func (m *Manager) interval(level int32, min, max, lo, hi int64) Ref {
	if hi < min || lo > max {
		return False
	}
	if lo <= min && max <= hi {
		return True
	}
	mid := min + (max-min)/2
	l := m.interval(level+1, min, mid, lo, hi)
	h := m.interval(level+1, mid+1, max, lo, hi)
	return m.mk(level, l, h)
}

// Union returns a ∪ b.
func (m *Manager) Union(a, b Ref) Ref {
	switch {
	case a == b:
		return a
	case a == False:
		return b
	case b == False:
		return a
	case a == True || b == True:
		return True
	}
	if a > b {
		a, b = b, a
	}
	if r, ok := m.lookupOp(opUnion, a, b); ok {
		return r
	}
	na, nb := m.nodes[a], m.nodes[b]
	var r Ref
	switch {
	case na.level == nb.level:
		r = m.mk(na.level, m.Union(na.lo, nb.lo), m.Union(na.hi, nb.hi))
	case na.level < nb.level:
		r = m.mk(na.level, m.Union(na.lo, b), m.Union(na.hi, b))
	default:
		r = m.mk(nb.level, m.Union(a, nb.lo), m.Union(a, nb.hi))
	}
	m.storeOp(opUnion, a, b, r)
	return r
}

// Intersect returns a ∩ b.
func (m *Manager) Intersect(a, b Ref) Ref {
	switch {
	case a == b:
		return a
	case a == False || b == False:
		return False
	case a == True:
		return b
	case b == True:
		return a
	}
	if a > b {
		a, b = b, a
	}
	if r, ok := m.lookupOp(opIntersect, a, b); ok {
		return r
	}
	na, nb := m.nodes[a], m.nodes[b]
	var r Ref
	switch {
	case na.level == nb.level:
		r = m.mk(na.level, m.Intersect(na.lo, nb.lo), m.Intersect(na.hi, nb.hi))
	case na.level < nb.level:
		r = m.mk(na.level, m.Intersect(na.lo, b), m.Intersect(na.hi, b))
	default:
		r = m.mk(nb.level, m.Intersect(a, nb.lo), m.Intersect(a, nb.hi))
	}
	m.storeOp(opIntersect, a, b, r)
	return r
}

// Diff returns a \ b.
func (m *Manager) Diff(a, b Ref) Ref {
	switch {
	case a == False || b == True:
		return False
	case b == False:
		return a
	case a == b:
		return False
	}
	if r, ok := m.lookupOp(opDiff, a, b); ok {
		return r
	}
	na, nb := m.nodes[a], m.nodes[b]
	var r Ref
	switch {
	case a == True:
		// universe minus b at b's level
		r = m.mk(nb.level, m.Diff(True, nb.lo), m.Diff(True, nb.hi))
	case na.level == nb.level:
		r = m.mk(na.level, m.Diff(na.lo, nb.lo), m.Diff(na.hi, nb.hi))
	case na.level < nb.level:
		r = m.mk(na.level, m.Diff(na.lo, b), m.Diff(na.hi, b))
	default:
		r = m.mk(nb.level, m.Diff(a, nb.lo), m.Diff(a, nb.hi))
	}
	m.storeOp(opDiff, a, b, r)
	return r
}

// Contains reports whether x ∈ s. Levels absent from the path are
// don't-care variables, so only the levels present are tested.
func (m *Manager) Contains(s Ref, x int64) bool {
	r := s
	for r > True {
		n := m.nodes[r]
		if (x>>uint(int32(m.bits)-1-n.level))&1 == 1 {
			r = n.hi
		} else {
			r = n.lo
		}
	}
	return r == True
}

// Count returns |s|.
func (m *Manager) Count(s Ref) uint64 {
	return m.countAt(s, 0)
}

func (m *Manager) countAt(s Ref, level int32) uint64 {
	width := uint(int32(m.bits) - level)
	if s == False {
		return 0
	}
	if s == True {
		return 1 << width
	}
	n := m.nodes[s]
	// Scale for skipped levels between `level` and n.level.
	skipped := uint(n.level - level)
	if c, ok := m.counts[s]; ok {
		return c << skipped
	}
	c := m.countAt(n.lo, n.level+1) + m.countAt(n.hi, n.level+1)
	m.counts[s] = c
	return c << skipped
}

// Elements appends the members of s to dst in increasing order and
// returns it. Intended for small sets (tests, reports).
func (m *Manager) Elements(s Ref, dst []int64) []int64 {
	var walk func(r Ref, level int32, prefix int64)
	walk = func(r Ref, level int32, prefix int64) {
		if r == False {
			return
		}
		if level == int32(m.bits) {
			dst = append(dst, prefix)
			return
		}
		if r == True {
			walk(True, level+1, prefix<<1)
			walk(True, level+1, prefix<<1|1)
			return
		}
		n := m.nodes[r]
		if n.level > level {
			walk(r, level+1, prefix<<1)
			walk(r, level+1, prefix<<1|1)
			return
		}
		walk(n.lo, level+1, prefix<<1)
		walk(n.hi, level+1, prefix<<1|1)
	}
	walk(s, 0, 0)
	return dst
}

// NodeSize returns the number of distinct nodes reachable from s
// (excluding terminals) — the per-set memory figure.
func (m *Manager) NodeSize(s Ref) int {
	m.beginVisit()
	return m.countReachable(s)
}

// NodeSizeAll returns the number of distinct nodes reachable from any
// of the roots (excluding terminals) — the *shared* memory figure for
// a whole population of sets, which the lineage experiments compare
// against the naive sum of per-set sizes (§3.4).
func (m *Manager) NodeSizeAll(roots []Ref) int {
	m.beginVisit()
	total := 0
	for _, r := range roots {
		total += m.countReachable(r)
	}
	return total
}

// beginVisit starts a fresh traversal epoch on the shared scratch.
func (m *Manager) beginVisit() {
	if len(m.seen) < len(m.nodes) {
		m.seen = append(m.seen, make([]uint32, len(m.nodes)-len(m.seen))...)
	}
	m.stamp++
	if m.stamp == 0 { // wrapped: clear and restart
		for i := range m.seen {
			m.seen[i] = 0
		}
		m.stamp = 1
	}
}

// countReachable counts not-yet-visited non-terminal nodes reachable
// from r in the current epoch.
func (m *Manager) countReachable(r Ref) int {
	if r <= True || m.seen[r] == m.stamp {
		return 0
	}
	m.seen[r] = m.stamp
	n := m.nodes[r]
	return 1 + m.countReachable(n.lo) + m.countReachable(n.hi)
}

// Subset reports whether a ⊆ b.
func (m *Manager) Subset(a, b Ref) bool { return m.Diff(a, b) == False }
