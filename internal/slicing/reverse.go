package slicing

import (
	"unsafe"

	"scaldift/internal/ddg"
	"scaldift/internal/isa"
)

// Reverse is the def → uses adjacency of a ddg.Source: for every
// instance some stored (or reconstructed) dependence names as its def,
// the uses that read it. Forward slicing walks it; nothing else can
// answer "who used this instance" short of rescanning every record.
//
// The layout is CSR per def thread: an offset array indexed by def
// instance n − lo, plus one flat array of uses. Every dependence kind
// is kept, so one index serves every Options filter. A Reverse is
// immutable once built and safe for concurrent reads: the query
// service builds one per closed trace, program attachment and
// reconstruction mode, and shares it across forward queries.
type Reverse struct {
	byTID []*revThread // indexed by def thread; nil: no def there
	edges int
}

// revThread holds the uses of one thread's defs: those of instance
// lo+i are use[off[i]:off[i+1]], in the order the build met them.
type revThread struct {
	lo  uint64
	off []uint32
	use []revUse
}

// revUse is one stored edge seen from its def.
type revUse struct {
	id   ddg.ID
	pc   int32
	kind ddg.Kind
}

// revPending is an edge waiting for its def thread's CSR layout.
type revPending struct {
	n uint64 // the def's instance number
	u revUse
}

// BuildReverse indexes the source's dependences by def, in one pass
// over every thread's window: threads in Threads order, instances
// ascending, each DepsOf in yield order — the order a def's uses are
// later expanded in. It polls done like a traversal and returns nil
// if done fired before the pass completed. A source that yields
// nothing for some instances (a budgeted reader out of budget) yields
// an index missing their edges: callers that share the index must not
// keep one built that way.
func BuildReverse(src ddg.Source, done <-chan struct{}) *Reverse {
	opts := Options{Done: done}
	var pending [][]revPending // by def thread
	add := func(d ddg.Dep) {
		tid := d.Def.TID()
		for tid >= len(pending) {
			pending = append(pending, nil)
		}
		pending[tid] = append(pending[tid], revPending{d.Def.N(), revUse{d.Use, d.UsePC, d.Kind}})
	}
	for _, tid := range src.Threads() {
		lo, hi := src.Window(tid)
		for n := lo; n <= hi && lo != 0; n++ {
			if (n-lo)&donePollMask == 0 && opts.doneFired() {
				return nil
			}
			src.DepsOf(ddg.MakeID(tid, n), add)
		}
	}

	r := &Reverse{byTID: make([]*revThread, len(pending))}
	for tid, p := range pending {
		if len(p) == 0 {
			continue
		}
		lo, hi := p[0].n, p[0].n
		for _, e := range p {
			lo, hi = min(lo, e.n), max(hi, e.n)
		}
		span := hi - lo + 1
		rt := &revThread{lo: lo, off: make([]uint32, span+1), use: make([]revUse, len(p))}
		// Count per def, prefix-sum to each def's end, then place edges
		// back to front: every def's uses keep the build's order.
		for _, e := range p {
			rt.off[e.n-lo]++
		}
		for i := uint64(1); i < span; i++ {
			rt.off[i] += rt.off[i-1]
		}
		rt.off[span] = uint32(len(p))
		for i := len(p) - 1; i >= 0; i-- {
			k := p[i].n - lo
			rt.off[k]--
			rt.use[rt.off[k]] = p[i].u
		}
		r.byTID[tid] = rt
		r.edges += len(p)
		pending[tid] = nil
	}
	return r
}

// uses returns the uses of def id (nil if none).
func (r *Reverse) uses(id ddg.ID) []revUse {
	tid := id.TID()
	if tid >= len(r.byTID) || r.byTID[tid] == nil {
		return nil
	}
	rt := r.byTID[tid]
	i := id.N() - rt.lo
	if id.N() < rt.lo || i >= uint64(len(rt.off)-1) {
		return nil
	}
	return rt.use[rt.off[i]:rt.off[i+1]]
}

// Edges returns how many dependences the index holds.
func (r *Reverse) Edges() int { return r.edges }

// Bytes returns the index's resident size: its offset and use arrays.
func (r *Reverse) Bytes() int64 {
	b := int64(len(r.byTID)) * int64(unsafe.Sizeof((*revThread)(nil)))
	for _, rt := range r.byTID {
		if rt != nil {
			b += int64(unsafe.Sizeof(*rt)) +
				int64(len(rt.off))*int64(unsafe.Sizeof(rt.off[0])) +
				int64(len(rt.use))*int64(unsafe.Sizeof(revUse{}))
		}
	}
	return b
}

// ForwardOver computes the forward dynamic slice of the start
// instances by walking rev, the reverse index of src; workers selects
// the solo or the sharded walk (see the package comment), and every
// shard reads the one index. src answers only the start instances'
// PCs — a discovered use carries its PC on the edge. A nil rev (a
// BuildReverse that done cut short) yields an empty Interrupted slice.
func ForwardOver(rev *Reverse, src ddg.Source, prog *isa.Program, start []ddg.ID, opts Options, workers int) *Slice {
	t := newTraversal(src, opts, workers)
	if rev == nil {
		t.interrupted.Store(true)
		return t.walk(prog)
	}
	// A def can have trace-proportional fan-out, so expansion polls too.
	t.expander = func(_ *shard, edge func(ddg.ID, int32)) func(item) {
		return func(it item) {
			for i, u := range rev.uses(it.id) {
				if i&donePollMask == donePollMask && t.doneFired() {
					return
				}
				if opts.follows(u.kind) {
					edge(u.id, u.pc)
				}
			}
		}
	}
	for _, id := range start {
		pc, ok := src.NodePC(id)
		if !ok {
			pc = -1
		}
		t.enqueue(t.shardOf(id.TID()), item{id: id, pc: pc})
	}
	return t.walk(prog)
}
