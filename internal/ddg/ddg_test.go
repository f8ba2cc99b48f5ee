package ddg

import (
	"testing"
	"testing/quick"

	"scaldift/internal/isa"
	"scaldift/internal/vm"
)

// depsOf materializes s.DepsOf.
func depsOf(s Source, id ID) []Dep {
	var out []Dep
	s.DepsOf(id, func(d Dep) { out = append(out, d) })
	return out
}

// fullCounts returns g's node and edge counts and its in-memory size:
// 4 bytes per node PC, 24 per edge-slice header and 40 per Dep, the
// figure the storage experiments report for the naive graph.
func fullCounts(g *Full) (nodes, edges, size uint64) {
	for _, ft := range g.threads {
		nodes += uint64(len(ft.pcs))
		size += 4*uint64(len(ft.pcs)) + 24*uint64(len(ft.deps))
		for _, ds := range ft.deps {
			edges += uint64(len(ds))
			size += 40 * uint64(cap(ds))
		}
	}
	return nodes, edges, size
}

func TestIDRoundTrip(t *testing.T) {
	f := func(tid uint8, n uint32) bool {
		id := MakeID(int(tid), uint64(n))
		return id.TID() == int(tid) && id.N() == uint64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if MakeID(3, 17).String() != "3:17" {
		t.Fatal("String format")
	}
}

func extract(t *testing.T, text string, inputs []int64, opts ExtractorOpts) (*Full, *Extractor, *isa.Program) {
	t.Helper()
	p := isa.MustAssemble("t", text)
	m := vm.MustNew(p, vm.Config{})
	m.SetInput(0, inputs)
	sink := NewFullSink()
	ex := NewExtractor(p, sink, opts)
	m.AttachTool(ex)
	if res := m.Run(); res.Failed {
		t.Fatal(res.FailMsg)
	}
	return sink.G, ex, p
}

func TestExtractorRegisterDeps(t *testing.T) {
	g, _, _ := extract(t, `
    movi r1, 1
    movi r2, 2
    add r3, r1, r2
    halt
`, nil, ExtractorOpts{})
	// Node 3 (add) depends on nodes 1 and 2.
	deps := depsOf(g, MakeID(0, 3))
	if len(deps) != 2 {
		t.Fatalf("deps = %+v", deps)
	}
	got := map[uint64]bool{}
	for _, d := range deps {
		if d.Kind != Data {
			t.Fatalf("kind = %v", d.Kind)
		}
		got[d.Def.N()] = true
	}
	if !got[1] || !got[2] {
		t.Fatalf("defs = %v", got)
	}
}

func TestExtractorMemoryDeps(t *testing.T) {
	g, _, _ := extract(t, `
    movi r1, 9
    store r0, r1, 50
    load r2, r0, 50
    halt
`, nil, ExtractorOpts{})
	deps := depsOf(g, MakeID(0, 3)) // load
	// load depends on the store (mem) — store value reg r1 dep is on
	// the store node, not the load.
	found := false
	for _, d := range deps {
		if d.Def.N() == 2 && d.Kind == Data {
			found = true
		}
	}
	if !found {
		t.Fatalf("load deps = %+v", deps)
	}
}

func TestExtractorControlDeps(t *testing.T) {
	g, _, _ := extract(t, `
    in r1, 0
    beqz r1, skip
    movi r2, 7
skip:
    halt
`, []int64{1}, ExtractorOpts{ControlDeps: true})
	deps := depsOf(g, MakeID(0, 3)) // movi under the branch
	var ctrl *Dep
	for i, d := range deps {
		if d.Kind == Control {
			ctrl = &deps[i]
		}
	}
	if ctrl == nil || ctrl.Def.N() != 2 || ctrl.DefPC != 1 {
		t.Fatalf("control dep = %+v", deps)
	}
}

func TestExtractorSpawnArgDep(t *testing.T) {
	g, _, _ := extract(t, `
    in r10, 0
    spawn r20, r10, child
    join r20
    halt
child:
    addi r2, r1, 1
    halt
`, []int64{5}, ExtractorOpts{})
	// Child's first instruction uses r1, defined by the spawn (node
	// 0:2).
	deps := depsOf(g, MakeID(1, 1))
	found := false
	for _, d := range deps {
		if d.Def == MakeID(0, 2) {
			found = true
		}
	}
	if !found {
		t.Fatalf("child arg deps = %+v", deps)
	}
}

func TestExtractorDupSrcRegsOneEdge(t *testing.T) {
	g, _, _ := extract(t, `
    movi r1, 2
    add r2, r1, r1
    halt
`, nil, ExtractorOpts{})
	deps := depsOf(g, MakeID(0, 2))
	if len(deps) != 1 {
		t.Fatalf("want one edge for add r2,r1,r1; got %+v", deps)
	}
}

func TestFullGraphWindowAndSize(t *testing.T) {
	g, ex, _ := extract(t, `
    movi r1, 1
    addi r1, r1, 1
    addi r1, r1, 1
    halt
`, nil, ExtractorOpts{})
	lo, hi := g.Window(0)
	if lo != 1 || hi != 4 {
		t.Fatalf("window = [%d,%d]", lo, hi)
	}
	nodes, edges, size := fullCounts(g)
	if nodes != 4 || ex.Instrs() != 4 {
		t.Fatalf("nodes=%d instrs=%d", nodes, ex.Instrs())
	}
	if edges != 2 {
		t.Fatalf("edges = %d", edges)
	}
	if size == 0 {
		t.Fatal("size should be positive")
	}
	if pc, ok := g.NodePC(MakeID(0, 2)); !ok || pc != 1 {
		t.Fatalf("NodePC = %d,%v", pc, ok)
	}
	if _, ok := g.NodePC(MakeID(0, 99)); ok {
		t.Fatal("phantom node")
	}
}

func TestCompactRoundTrip(t *testing.T) {
	c := NewCompact(0)
	use := MakeID(0, 10)
	deps := []Dep{
		{Use: use, UsePC: 5, Def: MakeID(0, 7), DefPC: 2, Kind: Data},
		{Use: use, UsePC: 5, Def: MakeID(0, 9), DefPC: 4, Kind: Control},
	}
	c.Append(use, 5, deps, 0)
	use2 := MakeID(0, 12)
	c.Append(use2, 6, []Dep{{Use: use2, UsePC: 6, Def: MakeID(1, 3), DefPC: 9, Kind: Data}}, 0)
	c.Append(MakeID(0, 15), 5, nil, 3) // redundant-load marker

	got := depsOf(c, use)
	if len(got) != 2 {
		t.Fatalf("got %+v", got)
	}
	if got[0].Def != MakeID(0, 7) || got[0].DefPC != 2 || got[0].Kind != Data {
		t.Fatalf("data dep = %+v", got[0])
	}
	if got[1].Def != MakeID(0, 9) || got[1].Kind != Control {
		t.Fatalf("ctrl dep = %+v", got[1])
	}
	got = depsOf(c, use2)
	if len(got) != 1 || got[0].Def != MakeID(1, 3) || got[0].DefPC != 9 {
		t.Fatalf("cross-thread dep = %+v", got)
	}
	got = depsOf(c, MakeID(0, 15))
	if len(got) != 1 || got[0].Kind != SameAs || got[0].Def != MakeID(0, 12) {
		t.Fatalf("rl = %+v", got)
	}
	if pc, ok := c.NodePC(use); !ok || pc != 5 {
		t.Fatalf("NodePC = %d %v", pc, ok)
	}
	lo, hi := c.Window(0)
	if lo != 10 || hi != 15 {
		t.Fatalf("window = [%d,%d]", lo, hi)
	}
}

func TestCompactEviction(t *testing.T) {
	c := NewCompact(16 * 1024)
	// Write far more than 16KB of records.
	for n := uint64(1); n <= 200000; n++ {
		use := MakeID(0, n)
		var deps []Dep
		if n > 1 {
			deps = []Dep{{Use: use, UsePC: 3, Def: MakeID(0, n-1), DefPC: 3, Kind: Data}}
		}
		c.Append(use, 3, deps, 0)
	}
	if c.bytes > 17*1024 {
		t.Fatalf("ring over capacity: %d", c.bytes)
	}
	lo, hi := c.Window(0)
	if hi != 200000 {
		t.Fatalf("hi = %d", hi)
	}
	if lo <= 1 {
		t.Fatal("oldest records should be gone")
	}
	// Old instance unavailable, recent available.
	if deps := depsOf(c, MakeID(0, 5)); deps != nil {
		t.Fatalf("evicted node still readable: %+v", deps)
	}
	if deps := depsOf(c, MakeID(0, 199999)); len(deps) != 1 {
		t.Fatalf("recent node unreadable: %+v", deps)
	}
	if c.BytesWritten() < uint64(c.bytes) {
		t.Fatal("written < retained")
	}
}

func TestCompactManyThreads(t *testing.T) {
	c := NewCompact(0)
	for tid := 0; tid < 5; tid++ {
		for n := uint64(1); n <= 100; n++ {
			use := MakeID(tid, n*2) // sparse instance numbers
			var deps []Dep
			if n > 1 {
				deps = []Dep{{Use: use, UsePC: int32(tid), Def: MakeID(tid, (n-1)*2), DefPC: int32(tid), Kind: Data}}
			}
			c.Append(use, int32(tid), deps, 0)
		}
	}
	if got := c.Threads(); len(got) != 5 {
		t.Fatalf("threads = %v", got)
	}
	for tid := 0; tid < 5; tid++ {
		deps := depsOf(c, MakeID(tid, 100))
		if len(deps) != 1 || deps[0].Def != MakeID(tid, 98) {
			t.Fatalf("tid %d: %+v", tid, deps)
		}
	}
}

// Property: compact round-trips arbitrary same-thread dep chains.
func TestCompactRoundTripProperty(t *testing.T) {
	f := func(pcs []uint16, deltas []uint8) bool {
		c := NewCompact(0)
		n := uint64(1)
		type rec struct {
			use  ID
			deps []Dep
		}
		var recs []rec
		for i, pc := range pcs {
			n += uint64(i%3) + 1
			use := MakeID(0, n)
			var deps []Dep
			if i < len(deltas) && uint64(deltas[i])%n != 0 && uint64(deltas[i]) < n {
				deps = append(deps, Dep{Use: use, UsePC: int32(pc % 1000),
					Def: MakeID(0, n-uint64(deltas[i])), DefPC: int32(pc % 997), Kind: Data})
			}
			c.Append(use, int32(pc%1000), deps, 0)
			recs = append(recs, rec{use: use, deps: deps})
		}
		for _, r := range recs {
			got := depsOf(c, r.use)
			if len(got) != len(r.deps) {
				return false
			}
			for i := range got {
				if got[i] != r.deps[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCompactIsSmallerThanFull(t *testing.T) {
	// The whole point: the same dependence stream must cost far less
	// in the compact encoding than in the full graph.
	prog := `
    movi r1, 0
    movi r2, 0
loop:
    addi r2, r2, 3
    addi r1, r1, 1
    movi r3, 5000
    blt r1, r3, loop
    halt
`
	p := isa.MustAssemble("t", prog)
	m := vm.MustNew(p, vm.Config{})
	full := NewFullSink()
	compact := NewCompact(0)
	ex := NewExtractor(p, &teeSink{full: full, compact: compact}, ExtractorOpts{ControlDeps: true})
	m.AttachTool(ex)
	if res := m.Run(); res.Failed {
		t.Fatal(res.FailMsg)
	}
	_, _, fullB := fullCounts(full.G)
	compB := uint64(compact.bytes)
	if compB*4 > fullB {
		t.Fatalf("compact %dB should be <1/4 of full %dB", compB, fullB)
	}
}

type teeSink struct {
	full    *FullSink
	compact *Compact
}

func (s *teeSink) Node(id ID, pc int32, ev *vm.Event) { s.full.Node(id, pc, ev) }
func (s *teeSink) Deps(id ID, pc int32, deps []Dep) {
	s.full.Deps(id, pc, deps)
	if len(deps) > 0 {
		s.compact.Append(id, pc, deps, 0)
	}
}
