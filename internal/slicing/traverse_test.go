package slicing

import (
	"fmt"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"scaldift/internal/ddg"
	"scaldift/internal/isa"
	"scaldift/internal/prog"
)

// buildWorkloadGraph runs a workload under the full extractor with a
// randomized schedule and returns its graph.
func buildWorkloadGraph(t *testing.T, w *prog.Workload, seed uint64) *ddg.Full {
	t.Helper()
	w.Cfg.Seed = seed
	w.Cfg.RandomPreempt = true
	if w.Cfg.Quantum == 0 {
		w.Cfg.Quantum = 13
	}
	m := w.NewMachine()
	sink := ddg.NewFullSink()
	m.AttachTool(ddg.NewExtractor(w.Prog, sink, ddg.ExtractorOpts{ControlDeps: true}))
	if res := m.Run(); res.Failed {
		t.Fatalf("%s: %s", w.Name, res.FailMsg)
	}
	return sink.G
}

// newestWithDeps returns the thread's newest instance that has at
// least one dependence (the halt at the very end slices empty).
func newestWithDeps(g *ddg.Full, tid int) ddg.ID {
	lo, hi := g.Window(tid)
	for n := hi; n >= lo && lo != 0; n-- {
		id := ddg.MakeID(tid, n)
		if len(ddg.CountDeps(g, id)) > 0 {
			return id
		}
	}
	return 0
}

// oldestWithDeps returns the thread's oldest instance that has at
// least one dependence — a forward-slice start whose closure is
// non-trivial.
func oldestWithDeps(g *ddg.Full, tid int) ddg.ID {
	lo, hi := g.Window(tid)
	for n := lo; n <= hi && lo != 0; n++ {
		id := ddg.MakeID(tid, n)
		if len(ddg.CountDeps(g, id)) > 0 {
			return id
		}
	}
	return 0
}

// criterionAt pairs an instance with its stored PC (-1: none).
func criterionAt(g ddg.Source, id ddg.ID) Criterion {
	pc, ok := g.NodePC(id)
	if !ok {
		pc = -1
	}
	return Criterion{ID: id, PC: pc}
}

// pcList returns the sorted PCs of a slice.
func pcList(s *Slice) []int {
	out := make([]int, 0, len(s.PCs))
	for pc := range s.PCs {
		out = append(out, int(pc))
	}
	sort.Ints(out)
	return out
}

// query is one slice request, runnable at any worker setting.
type query func(workers int) *Slice

// sameAcrossWorkers runs one unbounded query through the solo walk and
// the sharded walk and requires identical PCs, Lines, Nodes, Edges and
// TruncatedAtWindow: the closure is order-independent. It returns the
// solo result.
func sameAcrossWorkers(t *testing.T, label string, workers []int, run query) *Slice {
	t.Helper()
	solo := run(1)
	for _, n := range workers {
		got := run(n)
		if fmt.Sprint(solo.Lines) != fmt.Sprint(got.Lines) {
			t.Fatalf("%s workers %d: lines diverged\nsolo %v\ngot  %v", label, n, solo.Lines, got.Lines)
		}
		if fmt.Sprint(pcList(solo)) != fmt.Sprint(pcList(got)) {
			t.Fatalf("%s workers %d: PC sets diverged\nsolo %v\ngot  %v", label, n, pcList(solo), pcList(got))
		}
		if solo.Nodes != got.Nodes || solo.Edges != got.Edges {
			t.Fatalf("%s workers %d: traversal diverged: %d/%d nodes, %d/%d edges",
				label, n, solo.Nodes, got.Nodes, solo.Edges, got.Edges)
		}
		if solo.TruncatedAtWindow != got.TruncatedAtWindow {
			t.Fatalf("%s workers %d: truncation flags diverged", label, n)
		}
	}
	return solo
}

// backwardQueries slices backward from every thread's newest instance.
func backwardQueries(g *ddg.Full, p *isa.Program, opts Options) (qs []query) {
	for _, tid := range g.Threads() {
		if id := newestWithDeps(g, tid); id != 0 {
			crits := []Criterion{criterionAt(g, id)}
			qs = append(qs, func(workers int) *Slice {
				return ParallelBackward(g, p, crits, opts, workers)
			})
		}
	}
	return qs
}

// forwardQueries slices forward from all threads' oldest instances at
// once, then from each alone.
func forwardQueries(g *ddg.Full, p *isa.Program, opts Options) (qs []query) {
	var all []ddg.ID
	for _, tid := range g.Threads() {
		if id := oldestWithDeps(g, tid); id != 0 {
			all = append(all, id)
		}
	}
	starts := [][]ddg.ID{all}
	for _, id := range all {
		starts = append(starts, []ddg.ID{id})
	}
	for _, start := range starts {
		start := start
		qs = append(qs, func(workers int) *Slice {
			return ParallelForward(g, p, start, opts, workers)
		})
	}
	return qs
}

// The direction × workers {1, 2, 8} table over prog.All(): the sharded
// walk is held to the solo walk's exact results on every workload (the
// solo walk itself answers to the progen oracle).
func TestParallelBackwardMatchesSequential(t *testing.T) { testWorkersAgree(t, 1, backwardQueries) }
func TestParallelForwardMatchesSequential(t *testing.T)  { testWorkersAgree(t, 2, forwardQueries) }

func testWorkersAgree(t *testing.T, seed uint64, queries func(*ddg.Full, *isa.Program, Options) []query) {
	for _, w := range prog.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			g := buildWorkloadGraph(t, w, seed)
			for i, q := range queries(g, w.Prog, Options{FollowControl: true}) {
				sameAcrossWorkers(t, fmt.Sprintf("query %d", i), []int{2, 8}, q)
			}
		})
	}
}

// TestParallelBackwardMultiCriteria slices from all threads' ends at
// once — the fan-out case the sharded walk exists for.
func TestParallelBackwardMultiCriteria(t *testing.T) {
	w := prog.PSum(4, 300, 7)
	g := buildWorkloadGraph(t, w, 3)
	var crits []Criterion
	for _, tid := range g.Threads() {
		if id := newestWithDeps(g, tid); id != 0 {
			crits = append(crits, criterionAt(g, id))
		}
	}
	solo := sameAcrossWorkers(t, "multi-criteria", []int{4}, func(workers int) *Slice {
		return ParallelBackward(g, w.Prog, crits, Options{FollowControl: true}, workers)
	})
	if solo.Nodes < 100 {
		t.Fatalf("closure too small to be meaningful: %d nodes", solo.Nodes)
	}
}

// fakeSource is a hand-built ddg.Source: recorded threads with their
// windows, and the stored dependences of each instance.
type fakeSource struct {
	windows map[int][2]uint64
	deps    map[ddg.ID][]ddg.Dep
}

func (f *fakeSource) Threads() []int {
	var tids []int
	for tid := range f.windows {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	return tids
}
func (f *fakeSource) Window(tid int) (uint64, uint64) {
	return f.windows[tid][0], f.windows[tid][1]
}
func (f *fakeSource) NodePC(id ddg.ID) (int32, bool) {
	if d := f.deps[id]; len(d) > 0 {
		return d[0].UsePC, true
	}
	return 0, false
}
func (f *fakeSource) DepsOf(id ddg.ID, yield func(ddg.Dep)) {
	for _, d := range f.deps[id] {
		yield(d)
	}
}

// fakeHinted adds reconstruction: dependences no record stores,
// yielded only when the traversal supplies the instance's PC.
type fakeHinted struct {
	fakeSource
	elided map[ddg.ID][]ddg.Dep
}

func (f *fakeHinted) DepsOfHinted(id ddg.ID, pcHint int32, yield func(ddg.Dep)) {
	f.DepsOf(id, yield)
	if pcHint >= 0 {
		for _, d := range f.elided[id] {
			yield(d)
		}
	}
}

// TestOrphanThread: a stored edge names an instance of a thread the
// source never recorded. Over a plain source the statement joins the
// slice and the walk stops there; over a hinted source the instance
// still expands through reconstruction — within the unrecorded thread
// and back out of it. Sharded, those ids live in the orphan shard;
// both settings must agree.
func TestOrphanThread(t *testing.T) {
	id := ddg.MakeID
	dep := func(use ddg.ID, usePC int32, def ddg.ID, defPC int32) ddg.Dep {
		return ddg.Dep{Use: use, UsePC: usePC, Def: def, DefPC: defPC, Kind: ddg.Data}
	}
	plain := fakeSource{
		// The second "thread" is one no ddg.ID can name (a stray
		// segment file would report it): it must cost the walk nothing.
		windows: map[int][2]uint64{0: {1, 3}, 1 << 40: {1, 1}},
		deps: map[ddg.ID][]ddg.Dep{
			id(0, 3): {dep(id(0, 3), 30, id(7, 2), 72), dep(id(0, 3), 30, id(0, 2), 20)},
			id(0, 2): {dep(id(0, 2), 20, id(0, 1), 10)},
		},
	}
	hinted := &fakeHinted{fakeSource: plain, elided: map[ddg.ID][]ddg.Dep{
		id(7, 2): {dep(id(7, 2), 72, id(7, 1), 71)},
		id(7, 1): {dep(id(7, 1), 71, id(0, 1), 10)},
	}}
	crits := []Criterion{{ID: id(0, 3), PC: 30}}

	for _, c := range []struct {
		name         string
		run          query
		nodes, edges int
		pcs          []int
	}{
		{"backward plain", func(workers int) *Slice {
			return ParallelBackward(&plain, nil, crits, Options{}, workers)
		}, 3, 3, []int{10, 20, 30, 72}},
		{"backward hinted", func(workers int) *Slice {
			return ParallelBackward(hinted, nil, crits, Options{}, workers)
		}, 5, 5, []int{10, 20, 30, 71, 72}},
		{"forward from the unrecorded thread", func(workers int) *Slice {
			return ParallelForward(&plain, nil, []ddg.ID{id(7, 2)}, Options{}, workers)
		}, 2, 1, []int{30}},
	} {
		s := sameAcrossWorkers(t, c.name, []int{8}, c.run)
		if s.Nodes != c.nodes || s.Edges != c.edges || fmt.Sprint(pcList(s)) != fmt.Sprint(c.pcs) {
			t.Errorf("%s: %d nodes, %d edges, PCs %v; want %d, %d, %v",
				c.name, s.Nodes, s.Edges, pcList(s), c.nodes, c.edges, c.pcs)
		}
		if s.TruncatedAtWindow {
			t.Errorf("%s: an unrecorded thread is a dead end, not an evicted window", c.name)
		}
	}
}

// TestSliceCancellation: a pre-fired Done channel interrupts all four
// traversals, returning a partial (possibly empty) slice with
// Interrupted set rather than hanging or completing.
func TestSliceCancellation(t *testing.T) {
	w := prog.PSum(4, 800, 7)
	g := buildWorkloadGraph(t, w, 5)
	done := make(chan struct{})
	close(done)
	opts := Options{FollowControl: true, Done: done}

	var crits []Criterion
	var starts []ddg.ID
	for _, tid := range g.Threads() {
		if id := newestWithDeps(g, tid); id != 0 {
			crits = append(crits, criterionAt(g, id))
		}
		if id := oldestWithDeps(g, tid); id != 0 {
			starts = append(starts, id)
		}
	}
	full := Backward(g, w.Prog, crits, Options{FollowControl: true})

	if full.Nodes < 600 {
		t.Fatalf("closure too small for a meaningful cancellation test: %d nodes", full.Nodes)
	}

	type run struct {
		name string
		// strict runs interrupt deterministically (the solo walk polls
		// on its own node count); sharded, each shard polls on its own
		// count, so a walk spread thinly over the shards can complete
		// first and only termination is asserted.
		strict bool
		f      func() *Slice
	}
	for _, r := range []run{
		{"backward", true, func() *Slice { return Backward(g, w.Prog, crits, opts) }},
		{"parallel-backward", false, func() *Slice { return ParallelBackward(g, w.Prog, crits, opts, 4) }},
		{"forward", true, func() *Slice { return Forward(g, w.Prog, starts, opts) }},
		{"parallel-forward", false, func() *Slice { return ParallelForward(g, w.Prog, starts, opts, 4) }},
	} {
		start := time.Now()
		s := r.f()
		if r.strict {
			if !s.Interrupted {
				t.Errorf("%s: pre-cancelled traversal not marked Interrupted", r.name)
			}
			if s.Nodes >= full.Nodes {
				t.Errorf("%s: cancelled traversal visited the full closure (%d nodes)", r.name, s.Nodes)
			}
		}
		if el := time.Since(start); el > 30*time.Second {
			t.Errorf("%s: cancellation took %v", r.name, el)
		}
	}

	// A Done channel that never fires leaves results untouched.
	quiet := make(chan struct{})
	q := Backward(g, w.Prog, crits, Options{FollowControl: true, Done: quiet})
	if q.Interrupted || q.Nodes != full.Nodes {
		t.Fatal("idle Done channel perturbed the traversal")
	}
}

// cancellingSource wraps a Source and closes done after a fixed
// number of DepsOf calls, firing cancellation deterministically in the
// middle of BuildReverse's pass.
type cancellingSource struct {
	ddg.Source
	done  chan struct{}
	after int64
	calls atomic.Int64
}

func (c *cancellingSource) DepsOf(id ddg.ID, yield func(ddg.Dep)) {
	if c.calls.Add(1) == c.after {
		close(c.done)
	}
	c.Source.DepsOf(id, yield)
}

// TestParallelForwardStopsAfterCancelledScan pins the build-phase
// contract: when Done fires while BuildReverse is scanning, the build
// stops within one poll interval and returns no index, and
// ParallelForward returns an empty Interrupted slice instead of
// walking a partial index — edge-proportional work for a result the
// caller has already declined to wait for.
func TestParallelForwardStopsAfterCancelledScan(t *testing.T) {
	w := prog.PSum(4, 800, 7)
	g := buildWorkloadGraph(t, w, 5)
	var starts []ddg.ID
	for _, tid := range g.Threads() {
		if id := oldestWithDeps(g, tid); id != 0 {
			starts = append(starts, id)
		}
	}
	if len(starts) == 0 {
		t.Skip("no recorded instances")
	}
	const after = 512
	done := make(chan struct{})
	cg := &cancellingSource{Source: g, done: done, after: after}
	if rev := BuildReverse(cg, done); rev != nil {
		t.Fatalf("mid-build cancellation still returned an index of %d edges", rev.Edges())
	}
	if calls := cg.calls.Load(); calls > after+donePollMask+1 {
		t.Fatalf("build ran %d DepsOf calls past cancellation at %d", calls-after, after)
	}

	done = make(chan struct{})
	cg = &cancellingSource{Source: g, done: done, after: after}
	s := ParallelForward(cg, w.Prog, starts, Options{FollowControl: true, Done: done}, 4)
	if !s.Interrupted {
		t.Fatal("mid-build cancellation not marked Interrupted")
	}
	if s.Nodes != 0 || s.Edges != 0 || len(s.PCs) != 0 {
		t.Fatalf("cancelled-in-build slice still traversed: %d nodes, %d edges", s.Nodes, s.Edges)
	}
}

// TestReverseShared: one index, built once with every edge kind,
// serves forward queries under every kind filter and both worker
// settings, each equal to a ParallelForward that builds its own; and
// the CSR layout stays within 24 bytes per stored edge.
func TestReverseShared(t *testing.T) {
	for _, w := range []*prog.Workload{prog.PSum(4, 300, 7), prog.All()[0]} {
		g := buildWorkloadGraph(t, w, 4)
		rev := BuildReverse(g, nil)
		stored := 0
		for _, tid := range g.Threads() {
			lo, hi := g.Window(tid)
			for n := lo; n <= hi && lo != 0; n++ {
				stored += len(ddg.CountDeps(g, ddg.MakeID(tid, n)))
			}
		}
		if rev.Edges() != stored {
			t.Fatalf("%s: index holds %d edges, source stores %d", w.Name, rev.Edges(), stored)
		}
		if per := float64(rev.Bytes()) / float64(rev.Edges()); per > 24 {
			t.Errorf("%s: %.1f B per stored edge, want <= 24", w.Name, per)
		}
		var starts []ddg.ID
		for _, tid := range g.Threads() {
			if id := oldestWithDeps(g, tid); id != 0 {
				starts = append(starts, id)
			}
		}
		for _, opts := range []Options{{}, {FollowControl: true}, {FollowControl: true, FollowAnti: true}} {
			for _, workers := range []int{1, 4} {
				label := fmt.Sprintf("%s %+v workers %d", w.Name, opts, workers)
				got := ForwardOver(rev, g, w.Prog, starts, opts, workers)
				want := ParallelForward(g, w.Prog, starts, opts, workers)
				if fmt.Sprint(pcList(got)) != fmt.Sprint(pcList(want)) || got.Nodes != want.Nodes || got.Edges != want.Edges {
					t.Fatalf("%s: shared index %d nodes %d edges, fresh build %d nodes %d edges",
						label, got.Nodes, got.Edges, want.Nodes, want.Edges)
				}
			}
		}
	}
}
