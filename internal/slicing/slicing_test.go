package slicing

import (
	"reflect"
	"testing"

	"scaldift/internal/ddg"
	"scaldift/internal/isa"
	"scaldift/internal/vm"
)

// buildGraph runs a program under a full extractor.
func buildGraph(t *testing.T, text string, inputs []int64, opts ddg.ExtractorOpts) (*ddg.Full, *isa.Program) {
	t.Helper()
	p := isa.MustAssemble("t", text)
	m := vm.MustNew(p, vm.Config{})
	m.SetInput(0, inputs)
	sink := ddg.NewFullSink()
	m.AttachTool(ddg.NewExtractor(p, sink, opts))
	if res := m.Run(); res.Failed {
		t.Fatal(res.FailMsg)
	}
	return sink.G, p
}

// instanceOf returns the last dynamic instance of the instruction at
// static pc.
func instanceOf(g *ddg.Full, tid int, pc int32) ddg.ID {
	lo, hi := g.Window(tid)
	for n := hi; n >= lo && lo != 0; n-- {
		id := ddg.MakeID(tid, n)
		if p, ok := g.NodePC(id); ok && p == pc {
			return id
		}
	}
	return 0
}

const twoChains = `
    in r1, 0          ; line 2: input A
    in r2, 0          ; line 3: input B
    addi r3, r1, 1    ; line 4: chain A
    addi r4, r2, 1    ; line 5: chain B
    add r3, r3, r3    ; line 6: chain A
    out r3, 1         ; line 7: only chain A
    out r4, 1         ; line 8: only chain B
    halt
`

func TestBackwardDataSliceSeparatesChains(t *testing.T) {
	g, p := buildGraph(t, twoChains, []int64{1, 2}, ddg.ExtractorOpts{})
	outA := instanceOf(g, 0, 5) // out r3
	s := Backward(g, p, []Criterion{{ID: outA, PC: 5}}, Options{})
	// Chain A lines: in r1 (2), addi r3 (4), add r3 (6), out (7).
	for _, want := range []int{2, 4, 6, 7} {
		if !s.Contains(want) {
			t.Fatalf("slice %v missing line %d", s.Lines, want)
		}
	}
	// Chain B must be absent.
	for _, bad := range []int{3, 5, 8} {
		if s.Contains(bad) {
			t.Fatalf("slice %v wrongly includes line %d", s.Lines, bad)
		}
	}
}

const branchy = `
    in r1, 0          ; line 2
    movi r2, 0        ; line 3
    beqz r1, skip     ; line 4
    movi r2, 5        ; line 5
skip:
    out r2, 1         ; line 7
    halt
`

func TestControlDependenceInclusion(t *testing.T) {
	g, p := buildGraph(t, branchy, []int64{1}, ddg.ExtractorOpts{ControlDeps: true})
	out := instanceOf(g, 0, 4) // out r2 at pc 4
	noCtrl := Backward(g, p, []Criterion{{ID: out, PC: 4}}, Options{})
	// Data-only: out <- movi r2,5 (no further deps: constant).
	if noCtrl.Contains(4) {
		t.Fatalf("data slice %v should not include the branch", noCtrl.Lines)
	}
	ctrl := Backward(g, p, []Criterion{{ID: out, PC: 4}}, Options{FollowControl: true})
	// With control deps: movi r2,5 is governed by beqz, which reads
	// r1 from the input.
	for _, want := range []int{2, 4, 5} {
		if !ctrl.Contains(want) {
			t.Fatalf("full slice %v missing line %d", ctrl.Lines, want)
		}
	}
	if ctrl.Edges <= noCtrl.Edges {
		t.Fatal("control slice should traverse more edges")
	}
}

func TestForwardSliceFromInput(t *testing.T) {
	g, p := buildGraph(t, twoChains, []int64{1, 2}, ddg.ExtractorOpts{})
	// Forward from the first IN instance (input A, node 0:1).
	s := Forward(g, p, []ddg.ID{ddg.MakeID(0, 1)}, Options{})
	for _, want := range []int{2, 4, 6, 7} {
		if !s.Contains(want) {
			t.Fatalf("forward slice %v missing line %d", s.Lines, want)
		}
	}
	for _, bad := range []int{3, 5, 8} {
		if s.Contains(bad) {
			t.Fatalf("forward slice %v wrongly includes line %d", s.Lines, bad)
		}
	}
}

func TestBackwardAcrossThreads(t *testing.T) {
	g, p := buildGraph(t, `
.data 0, 0
    in r10, 0         ; line 3
    spawn r20, r10, child
    join r20
    load r3, r0, 1    ; line 6
    out r3, 1         ; line 7
    halt
child:
    addi r2, r1, 1    ; line 10
    store r0, r2, 1   ; line 11
    halt
`, []int64{5}, ddg.ExtractorOpts{})
	out := instanceOf(g, 0, 4)
	s := Backward(g, p, []Criterion{{ID: out, PC: 4}}, Options{})
	for _, want := range []int{3, 10, 11, 6, 7} {
		if !s.Contains(want) {
			t.Fatalf("cross-thread slice %v missing line %d", s.Lines, want)
		}
	}
}

func TestMaxNodesBounds(t *testing.T) {
	g, p := buildGraph(t, `
    movi r1, 0
loop:
    addi r1, r1, 1
    movi r2, 5000
    blt r1, r2, loop
    out r1, 1
    halt
`, nil, ddg.ExtractorOpts{})
	out := instanceOf(g, 0, 4)
	// The solo walk enforces the bound exactly and deterministically:
	// callers compare truncated answers across repeat runs.
	first := Backward(g, p, []Criterion{{ID: out, PC: 4}}, Options{MaxNodes: 10})
	if first.Nodes != 10 {
		t.Fatalf("visited %d nodes with MaxNodes=10", first.Nodes)
	}
	for i := 0; i < 20; i++ {
		s := Backward(g, p, []Criterion{{ID: out, PC: 4}}, Options{MaxNodes: 10})
		if s.Nodes != first.Nodes || s.Edges != first.Edges || !reflect.DeepEqual(s.PCs, first.PCs) {
			t.Fatalf("repeat %d: %d nodes, %d edges, PCs %v; first call %d, %d, %v",
				i, s.Nodes, s.Edges, s.PCs, first.Nodes, first.Edges, first.PCs)
		}
	}
}

func TestAntiDependenceOption(t *testing.T) {
	g, p := buildGraph(t, `
    movi r1, 1        ; line 2
    store r0, r1, 9   ; line 3 write
    load r2, r0, 9    ; line 4 read
    movi r3, 2        ; line 5
    store r0, r3, 9   ; line 6 write (WAR with 4, WAW with 3)
    out r2, 1
    halt
`, nil, ddg.ExtractorOpts{WARWAW: true})
	w2 := instanceOf(g, 0, 4) // second store
	plain := Backward(g, p, []Criterion{{ID: w2, PC: 4}}, Options{})
	if plain.Contains(4) {
		t.Fatalf("plain slice %v should not include the read", plain.Lines)
	}
	anti := Backward(g, p, []Criterion{{ID: w2, PC: 4}}, Options{FollowAnti: true})
	if !anti.Contains(4) || !anti.Contains(3) {
		t.Fatalf("anti slice %v missing WAR/WAW statements", anti.Lines)
	}
}

func TestWindowTruncation(t *testing.T) {
	// A compact ring small enough to evict early history: slicing
	// reports truncation.
	p := isa.MustAssemble("t", `
    in r1, 0
    movi r3, 0
loop:
    add r1, r1, r1
    addi r3, r3, 1
    movi r4, 50000
    blt r3, r4, loop
    out r1, 1
    halt
`)
	m := vm.MustNew(p, vm.Config{})
	m.SetInput(0, []int64{1})
	c := ddg.NewCompact(4 * 1024)
	sink := &compactSink{c: c}
	m.AttachTool(ddg.NewExtractor(p, sink, ddg.ExtractorOpts{}))
	if res := m.Run(); res.Failed {
		t.Fatal(res.FailMsg)
	}
	_, hi := c.Window(0)
	crit := ddg.MakeID(0, hi)
	pc, _ := c.NodePC(crit)
	s := Backward(c, p, []Criterion{{ID: crit, PC: pc}}, Options{})
	if !s.TruncatedAtWindow {
		t.Fatal("expected window truncation")
	}
}

type compactSink struct{ c *ddg.Compact }

func (s *compactSink) Node(ddg.ID, int32, *vm.Event) {}
func (s *compactSink) Deps(id ddg.ID, pc int32, deps []ddg.Dep) {
	if len(deps) > 0 {
		s.c.Append(id, pc, deps, 0)
	}
}
