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
// model: Union, Intersect, Diff, Subset, Contains, Count, Elements,
// and the NodeSize/NodeSizeAll accounting invariants.
func FuzzSetOps(f *testing.F) {
	f.Add([]byte{0, 5, 0, 1, 20, 60, 2, 0, 1})
	f.Add([]byte{0, 127, 0, 1, 0, 127, 3, 1, 0, 4, 0, 1, 7, 0, 1})
	f.Add([]byte{1, 10, 11, 1, 12, 13, 2, 0, 1, 5, 0, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := NewManager(fuzzBits)
		const slots = 4
		sets := [slots]Ref{}
		model := [slots]map[int]bool{}
		for i := range model {
			model[i] = map[int]bool{}
		}
		for i := 0; i+2 < len(data); i += 3 {
			op := data[i] % 8
			x := int64(data[i+1]) % fuzzUniverse
			y := int64(data[i+2]) % fuzzUniverse
			dst := int(data[i]>>3) % slots
			a := int(data[i+1]>>1) % slots
			b := int(data[i+2]>>1) % slots
			switch op {
			case 0: // dst = {x}
				sets[dst] = m.Singleton(x)
				model[dst] = map[int]bool{int(x): true}
			case 1: // dst = [min(x,y), max(x,y)]
				lo, hi := x, y
				if lo > hi {
					lo, hi = hi, lo
				}
				sets[dst] = m.Interval(lo, hi)
				model[dst] = map[int]bool{}
				for v := lo; v <= hi; v++ {
					model[dst][int(v)] = true
				}
			case 2: // dst = a ∪ b
				sets[dst] = m.Union(sets[a], sets[b])
				model[dst] = setUnion(model[a], model[b])
			case 3: // dst = a ∩ b
				sets[dst] = m.Intersect(sets[a], sets[b])
				model[dst] = setIntersect(model[a], model[b])
			case 4: // dst = a \ b
				sets[dst] = m.Diff(sets[a], sets[b])
				model[dst] = setDiff(model[a], model[b])
			case 5: // check Contains
				if m.Contains(sets[a], x) != model[a][int(x)] {
					t.Fatalf("Contains(slot %d, %d) = %v, want %v",
						a, x, m.Contains(sets[a], x), model[a][int(x)])
				}
			case 6: // check Subset both ways
				if m.Subset(sets[a], sets[b]) != setSubset(model[a], model[b]) {
					t.Fatalf("Subset(%d, %d) diverged from model", a, b)
				}
			case 7: // dst = ∅ or universe
				if x%2 == 0 {
					sets[dst] = m.Empty()
					model[dst] = map[int]bool{}
				} else {
					sets[dst] = m.Universe()
					model[dst] = map[int]bool{}
					for v := 0; v < fuzzUniverse; v++ {
						model[dst][v] = true
					}
				}
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
