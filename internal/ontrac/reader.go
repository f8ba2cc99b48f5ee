package ontrac

import (
	"sync"

	"scaldift/internal/ddg"
)

// Reader adapts a dependence store into a ddg.Source for slicing,
// re-synthesizing the edges O1 and O2 elided. It reads raw records
// from any ddg.Source — the tracer's circular buffer, or a
// store.Reader over the directory it spilled into — plus the
// reconstruction tables of the owning tracer (or a Reconstructor).
// Because fully elided instances have no record at all,
// reconstruction needs the node's static PC from the traversal
// context; DepsOfHinted supplies it (the slicer learns each def's PC
// from the incoming edge).
type Reader struct {
	t   *tables
	src ddg.Source
}

// Reader returns the reconstructing view of the tracer's buffer.
func (t *Tracer) Reader() *Reader { return &Reader{t: &t.tables, src: t.buf} }

// Threads implements ddg.Source.
func (r *Reader) Threads() []int { return r.src.Threads() }

// Window implements ddg.Source.
func (r *Reader) Window(tid int) (uint64, uint64) { return r.src.Window(tid) }

// NodePC implements ddg.Source.
func (r *Reader) NodePC(id ddg.ID) (int32, bool) { return r.src.NodePC(id) }

// DepsOf implements ddg.Source using the stored PC when available.
func (r *Reader) DepsOf(id ddg.ID, yield func(ddg.Dep)) {
	pc, ok := r.src.NodePC(id)
	if !ok {
		pc = -1
	}
	r.DepsOfHinted(id, pc, yield)
}

// DepsOfHinted yields the stored dependences of id plus the O1/O2
// reconstructions valid for an instance of static instruction pcHint
// (-1: unknown, reconstruct nothing).
//
// A stored same-thread data dependence suppresses reconstruction of
// patterns with the same def PC: the writer only elides a dependence
// when the dynamic instance distance matches the pattern, so a stored
// edge to that def site means this instance deviated (a blocking sync
// retry skewed the thread sequence) and the pattern names the wrong
// instance. Replaying it anyway would fabricate an edge whose Def id
// belongs to a different static instruction — poisoning downstream
// hint propagation in the slicer and losing real statements. Fully
// elided instances need no such check: every elided dependence passed
// the writer's distance test, so their reconstruction is exact.
func (r *Reader) DepsOfHinted(id ddg.ID, pcHint int32, yield func(ddg.Dep)) {
	static, dict := byPC(r.t.staticByUse, pcHint), byPC(r.t.dictByUse, pcHint)
	if len(static) == 0 && len(dict) == 0 {
		r.src.DepsOf(id, yield) // nothing to reconstruct, nothing to suppress
		return
	}
	storedDef := storedDefsPool.Get().(*storedDefs)
	defer storedDef.release()
	storedDef.tid, storedDef.yield = id.TID(), yield
	r.src.DepsOf(id, storedDef.see)
	n := id.N()
	// O1: in-block static dependences hold at id-distance
	// usePC-defPC, except for instances whose true edge was stored.
	for _, defPC := range static {
		dist := uint64(pcHint - defPC)
		if dist == 0 || dist >= n || storedDef.has(defPC) {
			continue
		}
		yield(ddg.Dep{
			Use: id, UsePC: pcHint,
			Def:   ddg.MakeID(id.TID(), n-dist),
			DefPC: defPC,
			Kind:  ddg.Data,
		})
	}
	// O2: learned patterns for this use site. These may slightly
	// over-approximate (an instance may match a pattern its own
	// stores never confirmed), which only ever grows the slice.
	for _, k := range dict {
		if k.delta >= n || (k.kind == ddg.Data && storedDef.has(k.defPC)) {
			continue
		}
		yield(ddg.Dep{
			Use: id, UsePC: pcHint,
			Def:   ddg.MakeID(id.TID(), n-k.delta),
			DefPC: k.defPC,
			Kind:  k.kind,
		})
	}
}

// storedDefs forwards an instance's stored dependences to the
// caller's yield while collecting the def PCs of its same-thread data
// dependences. An instance stores a handful at most, so they live in a
// fixed array scanned linearly, spilling to a slice past it. The
// callback handed to the source's DepsOf always escapes, so a
// per-call closure over local state would cost heap allocations on
// every reconstructed instance: instead the state is pooled, with its
// method value bound once.
type storedDefs struct {
	tid   int
	yield func(ddg.Dep)
	see   func(ddg.Dep) // observe, bound at construction
	n     int
	small [8]int32
	spill []int32
}

var storedDefsPool = sync.Pool{New: func() any {
	s := new(storedDefs)
	s.see = s.observe
	return s
}}

func (s *storedDefs) observe(d ddg.Dep) {
	if d.Kind == ddg.Data && d.Def != 0 && d.Def.TID() == s.tid {
		if s.n < len(s.small) {
			s.small[s.n] = d.DefPC
			s.n++
		} else {
			s.spill = append(s.spill, d.DefPC)
		}
	}
	s.yield(d)
}

func (s *storedDefs) has(pc int32) bool {
	for _, p := range s.small[:s.n] {
		if p == pc {
			return true
		}
	}
	for _, p := range s.spill {
		if p == pc {
			return true
		}
	}
	return false
}

func (s *storedDefs) release() {
	s.yield, s.n, s.spill = nil, 0, s.spill[:0]
	storedDefsPool.Put(s)
}

var _ ddg.Source = (*Reader)(nil)
