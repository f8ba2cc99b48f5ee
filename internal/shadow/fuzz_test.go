package shadow

import (
	"testing"
)

// FuzzShadowMem cross-checks the paged Mem against a plain map under
// arbitrary operation streams, with the address derivation biased
// toward the paging hazards: negative addresses and page boundaries
// (addr = k*1024 ± 1).
func FuzzShadowMem(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0})
	f.Add([]byte{255, 2, 7, 1, 1, 1, 0, 2, 128, 0, 5, 0})
	f.Add([]byte{3, 0, 9, 3, 3, 0, 9, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		mem := NewMem[int16]()
		ref := map[int64]int16{}
		for i := 0; i+3 < len(data); i += 4 {
			// k in [-128,127] selects a page; delta in {-1,0,+1} lands
			// on and around the k*1024 boundary.
			k := int64(int8(data[i]))
			delta := int64(data[i+1]%3) - 1
			addr := k*pageSize + delta
			v := int16(int8(data[i+2]))
			switch data[i+3] % 4 {
			case 0, 1: // set
				mem.Set(addr, v)
				if v == 0 {
					delete(ref, addr)
				} else {
					ref[addr] = v
				}
			case 2: // get
				want := ref[addr]
				if got := mem.Get(addr); got != want {
					t.Fatalf("Mem.Get(%d) = %d, want %d", addr, got, want)
				}
			case 3: // occasionally clear everything
				if data[i+2] > 250 {
					mem.Clear()
					ref = map[int64]int16{}
				}
			}
		}
		// Full-state consistency at the end.
		if mem.Tainted() != len(ref) {
			t.Fatalf("Mem.Tainted() = %d, want %d", mem.Tainted(), len(ref))
		}
		for a, v := range ref {
			if mem.Get(a) != v {
				t.Fatalf("addr %d: mem %d, want %d", a, mem.Get(a), v)
			}
		}
		seen := 0
		mem.Range(func(a int64, v int16) bool {
			if ref[a] != v {
				t.Fatalf("Mem.Range leaked addr %d = %d (want %d)", a, v, ref[a])
			}
			seen++
			return true
		})
		if seen != len(ref) {
			t.Fatalf("Mem.Range visited %d cells, want %d", seen, len(ref))
		}
	})
}
