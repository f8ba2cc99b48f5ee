package bdd

import "math/bits"

// Interval, Intersect and Diff left the package with their only
// callers, the clustered lineage domain and the lineage diff query.
// They stay here as independent constructions of the same sets: the
// tests check Union, Singleton's chain memo, Count and Elements
// against them.

const (
	opIntersect uint8 = iota + 1
	opDiff
)

// Interval returns the set {lo..hi} (inclusive), clipped to the
// universe. Clustered lineage sets are intervals, which BDDs encode in
// O(bits) nodes: the interval is the union of its aligned power-of-two
// blocks, and a block of 2^k elements is a chain over levels
// k..bits-1 whose levels below k are don't-care.
func (m *Manager) Interval(lo, hi int64) Ref {
	lo, hi = max(lo, 0), min(hi, int64(1)<<uint(m.bits)-1)
	r := False
	for lo <= hi {
		k := min(bits.TrailingZeros64(uint64(lo)), m.bits)
		for hi-lo < int64(1)<<uint(k)-1 {
			k--
		}
		b := True
		for l := m.bits - 1; l >= k; l-- {
			b = m.mkBit(l, lo, b)
		}
		r = m.Union(r, b)
		lo += int64(1) << uint(k)
	}
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
