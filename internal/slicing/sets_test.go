package slicing

import (
	"testing"

	"scaldift/internal/ddg"
)

// fuzzID turns three fuzz bytes into an instance id, biased to where
// paging can go wrong: either side of a page boundary, the first,
// second and last thread a ddg.ID can name, and instance numbers at
// the top of the 48-bit range.
func fuzzID(a, b, c byte) ddg.ID {
	tid := [4]int{0, 1, 2, 1<<16 - 1}[a&3]
	const page = 1 << visitPageBits
	var n uint64
	switch a >> 2 & 3 {
	case 0: // k·page − 1, k·page, k·page + 1 (k = 0 wraps to the top)
		n = uint64(b)*page + uint64(c%3) - 1
	case 1: // just below 2^48
		n = 1<<48 - 1 - (uint64(b)<<8 | uint64(c))
	default: // small and dense
		n = uint64(b)<<8 | uint64(c)
	}
	return ddg.MakeID(tid, n)
}

// FuzzVisitedSet holds the paged visited set to a map model: add must
// report exactly the ids the model has not seen.
func FuzzVisitedSet(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 1, 1, 0, 1, 2, 0, 1, 1})
	f.Add([]byte{4, 0, 0, 5, 0, 0, 7, 0, 0, 4, 0, 1, 4, 0, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 3, 0, 0, 8, 2, 0, 11, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var v visitedSet
		model := map[ddg.ID]bool{}
		for ; len(data) >= 3; data = data[3:] {
			id := fuzzID(data[0], data[1], data[2])
			if got := v.add(id); got == model[id] {
				t.Fatalf("add(%v) = %v after %d distinct ids", id, got, len(model))
			}
			model[id] = true
		}
	})
}
