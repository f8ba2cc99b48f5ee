package slicing

import (
	"math/bits"

	"scaldift/internal/ddg"
	"scaldift/internal/isa"
)

// visitPageBits sets the visited set's page: 1<<visitPageBits
// consecutive instances of one thread, one bit each.
const visitPageBits = 9

// visitPage is one page of a visitedSet: 64 bytes.
type visitPage [1 << visitPageBits / 64]uint64

// visitedSet is the set of instances a shard has admitted: a bitmap
// paged by (thread, n >> visitPageBits), plus the last page used. A
// walk along one thread's chain pays one map probe per page rather
// than one per node. A dense slice costs about 1/8 byte per instance
// it spans; the worst case, each visited node alone on its page, is
// one 64-byte page plus one map entry (about 20-40 bytes) per node.
// The page size was picked with BenchmarkServedBackward, which read
// 512-, 1024- and 4096-instance pages alike: the smallest bounds the
// worst case best. Owned by one goroutine.
type visitedSet struct {
	pages   map[uint64]*visitPage
	lastKey uint64
	last    *visitPage
}

// add inserts id and reports whether it was absent.
func (v *visitedSet) add(id ddg.ID) bool {
	// A ddg.ID is tid<<48 | n, so id>>visitPageBits names the thread
	// and the page within it.
	key := uint64(id) >> visitPageBits
	p := v.last
	if p == nil || key != v.lastKey {
		if p = v.pages[key]; p == nil {
			if v.pages == nil {
				v.pages = make(map[uint64]*visitPage)
			}
			p = new(visitPage)
			v.pages[key] = p
		}
		v.last, v.lastKey = p, key
	}
	bit := uint64(id) & (1<<visitPageBits - 1)
	w, m := &p[bit/64], uint64(1)<<(bit%64)
	if *w&m != 0 {
		return false
	}
	*w |= m
	return true
}

// pcSet is a set of static PCs: a bitmap sized by the program's
// instruction count, and a map for everything else (a PC outside the
// program, or any PC when no program is attached). DefPC comes from
// the trace unchecked, so no PC's value sizes an allocation. Owned by
// one goroutine.
type pcSet struct {
	dense []uint64
	other map[int32]bool
}

func newPCSet(prog *isa.Program) pcSet {
	if prog == nil {
		return pcSet{}
	}
	return pcSet{dense: make([]uint64, (len(prog.Instrs)+63)/64)}
}

func (p *pcSet) add(pc int32) {
	if w := uint32(pc) / 64; w < uint32(len(p.dense)) {
		p.dense[w] |= 1 << (uint32(pc) % 64)
		return
	}
	if p.other == nil {
		p.other = make(map[int32]bool)
	}
	p.other[pc] = true
}

// addTo adds every PC of the set to dst.
func (p *pcSet) addTo(dst map[int32]bool) {
	for i, w := range p.dense {
		for ; w != 0; w &= w - 1 {
			dst[int32(i*64+bits.TrailingZeros64(w))] = true
		}
	}
	for pc := range p.other {
		dst[pc] = true
	}
}
