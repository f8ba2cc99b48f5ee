package bdd

import (
	"testing"
)

// fuzzBits keeps the universe small enough that the map reference
// model stays cheap while still exercising multi-level structure.
const fuzzBits = 7
const fuzzUniverse = 1 << fuzzBits

// FuzzSetOps drives the roBDD set algebra from an arbitrary operation
// stream and cross-checks every slot against a map[int]bool reference
// model: Union, Intersect, Diff, membership, subset, Count, Elements,
// intervals clipped to the universe, and the NodeSize/NodeSizeAll
// accounting invariants. It also checks canonicity by Ref across the
// singleton chain memo: Singleton(x) equals Interval(x, x), a repeated
// Singleton(x) returns the Ref it returned before, and an interval
// equals the union of its two halves.
func FuzzSetOps(f *testing.F) {
	f.Add([]byte{0, 5, 0, 1, 20, 60, 2, 0, 1})
	f.Add([]byte{0, 127, 0, 1, 0, 127, 3, 1, 0, 4, 0, 1, 7, 0, 1})
	f.Add([]byte{1, 10, 11, 1, 12, 13, 2, 0, 1, 5, 0, 12})
	f.Add([]byte{0, 64, 0, 8, 63, 0, 16, 65, 0, 0, 64, 0, 8, 3, 120})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := NewManager(fuzzBits)
		const slots = 4
		sets := [slots]Ref{}
		model := [slots]map[int]bool{}
		for i := range model {
			model[i] = map[int]bool{}
		}
		singles := map[int64]Ref{} // every Singleton result so far
		singleton := func(x int64) Ref {
			r := m.Singleton(x)
			if prev, ok := singles[x]; ok && prev != r {
				t.Fatalf("Singleton(%d) = %d, earlier %d", x, r, prev)
			}
			singles[x] = r
			return r
		}
		interval := func(lo, hi int64) (Ref, map[int]bool) {
			r := m.Interval(lo, hi)
			if mid := lo + (hi-lo)/2; m.Union(m.Interval(lo, mid), m.Interval(mid+1, hi)) != r {
				t.Fatalf("Interval(%d, %d) is not the union of its halves at %d", lo, hi, mid)
			}
			in := map[int]bool{}
			for v := max(lo, 0); v <= min(hi, fuzzUniverse-1); v++ {
				in[int(v)] = true
			}
			return r, in
		}
		for i := 0; i+2 < len(data); i += 3 {
			op := data[i] % 9
			x := int64(data[i+1]) % fuzzUniverse
			y := int64(data[i+2]) % fuzzUniverse
			dst := int(data[i]>>4) % slots
			a := int(data[i+1]>>1) % slots
			b := int(data[i+2]>>1) % slots
			lo, hi := min(x, y), max(x, y)
			switch op {
			case 0: // dst = {x}
				sets[dst] = singleton(x)
				model[dst] = map[int]bool{int(x): true}
				if iv := m.Interval(x, x); iv != sets[dst] {
					t.Fatalf("Singleton(%d) = %d, Interval(%d, %d) = %d", x, sets[dst], x, x, iv)
				}
			case 1: // dst = [lo, hi]
				sets[dst], model[dst] = interval(lo, hi)
			case 2: // dst = a ∪ b
				sets[dst] = m.Union(sets[a], sets[b])
				model[dst] = setUnion(model[a], model[b])
			case 3: // dst = a ∩ b
				sets[dst] = m.Intersect(sets[a], sets[b])
				model[dst] = setIntersect(model[a], model[b])
			case 4: // dst = a \ b
				sets[dst] = m.Diff(sets[a], sets[b])
				model[dst] = setDiff(model[a], model[b])
			case 5: // check x ∈ a
				if in := m.Intersect(sets[a], singleton(x)) != False; in != model[a][int(x)] {
					t.Fatalf("%d ∈ slot %d = %v, want %v", x, a, in, model[a][int(x)])
				}
			case 6: // check a ⊆ b
				if sub := m.Diff(sets[a], sets[b]) == False; sub != setSubset(model[a], model[b]) {
					t.Fatalf("slot %d ⊆ slot %d = %v, diverged from model", a, b, sub)
				}
			case 7: // dst = ∅ or universe
				if x%2 == 0 {
					sets[dst] = False
					model[dst] = map[int]bool{}
				} else {
					sets[dst], model[dst] = interval(0, fuzzUniverse-1)
					if sets[dst] != True {
						t.Fatalf("universe interval = %d, want True", sets[dst])
					}
				}
			case 8: // dst = [lo-64, hi+64], clipped to the universe
				sets[dst], model[dst] = interval(lo-fuzzUniverse/2, hi+fuzzUniverse/2)
			}
		}
		// Final full check of every slot.
		sizeSum := 0
		for i := range sets {
			if got, want := m.Count(sets[i]), uint64(len(model[i])); got != want {
				t.Fatalf("slot %d: Count = %d, want %d", i, got, want)
			}
			elems := m.Elements(sets[i], nil)
			if len(elems) != len(model[i]) {
				t.Fatalf("slot %d: %d elements, want %d", i, len(elems), len(model[i]))
			}
			for j, e := range elems {
				if !model[i][int(e)] {
					t.Fatalf("slot %d: spurious element %d", i, e)
				}
				if j > 0 && elems[j-1] >= e {
					t.Fatalf("slot %d: elements not ascending", i)
				}
			}
			sizeSum += m.NodeSize(sets[i])
		}
		// Shared-size invariants: the deduplicated count over all
		// roots never exceeds the per-set sum nor the manager's node
		// total, and recomputation is stable.
		all := m.NodeSizeAll(sets[:])
		if all > sizeSum {
			t.Fatalf("NodeSizeAll %d > sum of NodeSize %d", all, sizeSum)
		}
		if all > m.NumNodes() {
			t.Fatalf("NodeSizeAll %d > NumNodes %d", all, m.NumNodes())
		}
		if again := m.NodeSizeAll(sets[:]); again != all {
			t.Fatalf("NodeSizeAll unstable: %d then %d", all, again)
		}
	})
}

func setUnion(a, b map[int]bool) map[int]bool {
	r := map[int]bool{}
	for v := range a {
		r[v] = true
	}
	for v := range b {
		r[v] = true
	}
	return r
}

func setIntersect(a, b map[int]bool) map[int]bool {
	r := map[int]bool{}
	for v := range a {
		if b[v] {
			r[v] = true
		}
	}
	return r
}

func setDiff(a, b map[int]bool) map[int]bool {
	r := map[int]bool{}
	for v := range a {
		if !b[v] {
			r[v] = true
		}
	}
	return r
}

func setSubset(a, b map[int]bool) bool {
	for v := range a {
		if !b[v] {
			return false
		}
	}
	return true
}
