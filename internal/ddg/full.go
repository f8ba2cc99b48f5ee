package ddg

import "sort"

// Full is the uncompressed dynamic dependence graph: every executed
// instruction is a node, every dependence an explicit edge. It is the
// representation the paper's offline baseline materializes and the
// one whose size makes whole-execution tracing intractable for long
// runs.
type Full struct {
	threads map[int]*fullThread
}

type fullThread struct {
	pcs  []int32 // pcs[n-1] = static PC of instance n
	deps [][]Dep // deps[n-1] = edges with Use = n
}

// NewFull returns an empty full graph.
func NewFull() *Full { return &Full{threads: make(map[int]*fullThread)} }

func (g *Full) thread(tid int) *fullThread {
	ft, ok := g.threads[tid]
	if !ok {
		ft = &fullThread{}
		g.threads[tid] = ft
	}
	return ft
}

// AddNode records instance id executing static instruction pc. Nodes
// must be added in per-thread order (n = 1, 2, ...).
func (g *Full) AddNode(id ID, pc int32) {
	ft := g.thread(id.TID())
	if want := uint64(len(ft.pcs)) + 1; id.N() != want {
		panic("ddg: out-of-order AddNode")
	}
	ft.pcs = append(ft.pcs, pc)
	ft.deps = append(ft.deps, nil)
}

// AddDep records an edge; its Use node must already exist.
func (g *Full) AddDep(d Dep) {
	ft := g.thread(d.Use.TID())
	n := d.Use.N()
	if n == 0 || n > uint64(len(ft.deps)) {
		panic("ddg: AddDep for unknown node")
	}
	ft.deps[n-1] = append(ft.deps[n-1], d)
}

// Threads implements Source.
func (g *Full) Threads() []int {
	out := make([]int, 0, len(g.threads))
	for tid := range g.threads {
		out = append(out, tid)
	}
	sort.Ints(out)
	return out
}

// Window implements Source: a full graph keeps everything.
func (g *Full) Window(tid int) (uint64, uint64) {
	ft, ok := g.threads[tid]
	if !ok || len(ft.pcs) == 0 {
		return 0, 0
	}
	return 1, uint64(len(ft.pcs))
}

// DepsOf implements Source.
func (g *Full) DepsOf(id ID, yield func(Dep)) {
	ft, ok := g.threads[id.TID()]
	if !ok {
		return
	}
	n := id.N()
	if n == 0 || n > uint64(len(ft.deps)) {
		return
	}
	for _, d := range ft.deps[n-1] {
		yield(d)
	}
}

// NodePC implements Source.
func (g *Full) NodePC(id ID) (int32, bool) {
	ft, ok := g.threads[id.TID()]
	if !ok {
		return 0, false
	}
	n := id.N()
	if n == 0 || n > uint64(len(ft.pcs)) {
		return 0, false
	}
	return ft.pcs[n-1], true
}

var _ Source = (*Full)(nil)
