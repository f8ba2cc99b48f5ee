// Package bdd implements reduced ordered binary decision diagrams
// (roBDDs) specialized for representing sets of small non-negative
// integers — the lineage sets of §3.4 / [12] of the paper.
//
// A set S ⊆ {0..2^bits-1} is encoded as the boolean function that is
// true exactly on the binary encodings of S's elements. Level l tests
// bit l, so the least significant bit is the top variable. The paper's
// two observations — lineage sets of live values overlap heavily, and
// the input indices in a set are clustered — are exactly the cases
// where this encoding collapses: shared subsets share subgraphs, and a
// contiguous run of indices needs O(bits) nodes rather than O(run
// length).
//
// The low bit goes on top because lineage labels are minted in input
// order. A singleton is a chain built bottom-up, from the most
// significant bit, and its part from level l down depends only on
// x>>l. Consecutive inputs differ only in their low bits, so they
// share that part for every level above the highest bit in which they
// differ. The Manager keeps the previous singleton's chain and
// rebuilds only the levels up to that bit: about two hash-cons probes
// per sequential input instead of one per bit.
//
// Nodes are hash-consed in a manager table, so set equality is
// pointer (handle) equality and memory is shared across all sets.
package bdd

import (
	"fmt"
	"math/bits"
	"slices"
)

// Ref is a handle to a BDD node owned by a Manager. The constants
// False and True are the terminal nodes.
type Ref int32

// Terminal nodes.
const (
	False Ref = 0
	True  Ref = 1
)

type node struct {
	level int32 // variable index: level l tests bit l, 0 = least significant
	lo    Ref   // child when the variable is 0
	hi    Ref   // child when the variable is 1
}

// opUnion tags Union's entries in the computed table.
const opUnion uint8 = 0

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
	// ops is the direct-mapped computed table for Union (and, in the
	// tests, Intersect and Diff). It is reallocated (entries dropped)
	// when the node table grows, keeping its size proportional to the
	// working set.
	ops    []opEntry
	counts map[Ref]uint64 // memoized set cardinalities

	// Traversal scratch reused across NodeSizeAll calls: a node is
	// visited in the current traversal iff seen[ref] == stamp.
	// Avoids allocating a map per query on hot reporting paths.
	seen  []uint32
	stamp uint32

	// The previous Singleton's chain: chain[l] is the node for levels
	// l..bits-1 of `last`, and chain[bits] is True. chain[l] depends
	// only on last>>l, so Singleton(x) keeps chain[d..bits] for
	// d = bits.Len64(x^last) and rebuilds chain[0..d-1]. last starts at
	// -1, which shares no level with any element. The chain holds refs
	// that no caller may retain: a node collector must treat it as a
	// root, or reset it (last = -1), when it runs.
	last  int64
	chain []Ref
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
		last:   -1,
		chain:  make([]Ref, bits+1),
	}
	m.chain[bits] = True
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

// NumNodes returns the number of nodes ever allocated, terminals
// included. Nothing is freed, so this counts unreachable nodes too —
// the manager's memory figure, not the live one (NodeSizeAll is).
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

// mkBit returns the node at level l that continues to below when bit
// l of x is set as in x, and to False otherwise.
func (m *Manager) mkBit(l int, x int64, below Ref) Ref {
	if (x>>uint(l))&1 == 1 {
		return m.mk(int32(l), False, below)
	}
	return m.mk(int32(l), below, False)
}

// Singleton returns the set {x}.
func (m *Manager) Singleton(x int64) Ref {
	if x < 0 || x >= 1<<uint(m.bits) {
		panic(fmt.Sprintf("bdd: element %d outside universe of %d bits", x, m.bits))
	}
	for l := min(bits.Len64(uint64(x^m.last)), m.bits) - 1; l >= 0; l-- {
		m.chain[l] = m.mkBit(l, x, m.chain[l+1])
	}
	m.last = x
	return m.chain[0]
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
	start := len(dst)
	var walk func(r Ref, level int32, acc int64)
	walk = func(r Ref, level int32, acc int64) {
		if r == False {
			return
		}
		if level == int32(m.bits) {
			dst = append(dst, acc)
			return
		}
		lo, hi := r, r // a skipped level is don't-care
		if r != True && m.nodes[r].level == level {
			lo, hi = m.nodes[r].lo, m.nodes[r].hi
		}
		walk(lo, level+1, acc)
		walk(hi, level+1, acc|int64(1)<<uint(level))
	}
	walk(s, 0, 0)
	slices.Sort(dst[start:])
	return dst
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
