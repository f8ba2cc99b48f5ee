package ontrac

import (
	"fmt"
	"testing"

	"scaldift/internal/ddg"
	"scaldift/internal/pipeline"
	"scaldift/internal/prog"
	"scaldift/internal/slicing"
)

// The offloaded-tracer differential suite: every prog.All() workload,
// traced inline and through the offloaded stage, across >= 5
// randomized VM schedules, asserting identical stats (instructions,
// dependences seen/stored, per-optimization elisions, bytes written —
// hence identical bytes/instruction) and identical backward and
// forward slices. The two runs of a (workload, seed) pair use the
// same deterministic schedule — tools never perturb execution — so
// any divergence is the offloaded stage's fault.

const offSchedules = 5

// offOpts varies the hand-off shape with the schedule seed so the
// suite also sweeps batch sizes — 1 is the extreme where every
// hand-off is a single event — and, on one leg, a queue of one.
func offOpts(seed uint64) pipeline.Options {
	o := pipeline.Options{BatchEvents: []int{1, 7, 64, 256, 1024}[seed%5]}
	if seed%5 == 1 {
		o.QueueDepth = 1
	}
	return o
}

func runOffDiff(t *testing.T, w *prog.Workload, opts Options, seed uint64) (*Tracer, *Offloaded) {
	t.Helper()
	w.Cfg.Seed = seed
	w.Cfg.RandomPreempt = true
	if w.Cfg.Quantum == 0 {
		w.Cfg.Quantum = 11
	}

	mi := w.NewMachine()
	tr := New(w.Prog, opts)
	mi.AttachTool(tr.Tool())
	if res := mi.Run(); res.Failed {
		t.Fatalf("seed %d: inline run failed: %s", seed, res.FailMsg)
	}

	mp := w.NewMachine()
	off := NewOffloaded(w.Prog, opts, offOpts(seed))
	if res := Trace(mp, off); res.Failed {
		t.Fatalf("seed %d: offloaded run failed: %s", seed, res.FailMsg)
	}
	return tr, off
}

func diffStats(t *testing.T, seed uint64, tr *Tracer, off *Offloaded) {
	t.Helper()
	si, so := tr.Stats(), off.Stats()
	if si != so {
		t.Fatalf("seed %d: stats diverged:\ninline    %+v\noffloaded %+v", seed, si, so)
	}
	if si.Instrs == 0 || si.DepsSeen == 0 {
		t.Fatalf("seed %d: vacuous run: %+v", seed, si)
	}
	if si.BytesPerInstr() != so.BytesPerInstr() {
		t.Fatalf("seed %d: bytes/instr diverged: %f vs %f", seed, si.BytesPerInstr(), so.BytesPerInstr())
	}
}

func diffSlices(t *testing.T, seed uint64, w *prog.Workload, opts Options, tr *Tracer, off *Offloaded) {
	t.Helper()
	ri, ro := tr.Reader(), off.Reader()
	ti, to := ri.Threads(), ro.Threads()
	if fmt.Sprint(ti) != fmt.Sprint(to) {
		t.Fatalf("seed %d: thread sets diverged: %v vs %v", seed, ti, to)
	}
	sopts := slicing.Options{FollowControl: opts.ControlDeps}
	sliceLines := 0
	for _, tid := range ti {
		idI, idO := tr.LastID(tid), off.LastID(tid)
		if idI != idO {
			t.Fatalf("seed %d tid %d: LastID diverged: %v vs %v", seed, tid, idI, idO)
		}
		// Slice from the thread's newest RECORDED instance (LastID is
		// usually the HALT, which stores nothing and slices empty):
		// the stored windows must agree, and its slice is non-trivial.
		loI, hiI := ri.Window(tid)
		loO, hiO := ro.Window(tid)
		if loI != loO || hiI != hiO {
			t.Fatalf("seed %d tid %d: windows diverged: [%d,%d] vs [%d,%d]", seed, tid, loI, hiI, loO, hiO)
		}
		crit := ddg.MakeID(tid, hiI)
		pcI, okI := ri.NodePC(crit)
		pcO, okO := ro.NodePC(crit)
		if okI != okO || pcI != pcO {
			t.Fatalf("seed %d tid %d: NodePC diverged: (%d,%v) vs (%d,%v)", seed, tid, pcI, okI, pcO, okO)
		}
		if !okI {
			pcI, pcO = -1, -1
		}
		bi := slicing.Backward(ri, w.Prog, []slicing.Criterion{{ID: crit, PC: pcI}}, sopts)
		bo := slicing.Backward(ro, w.Prog, []slicing.Criterion{{ID: crit, PC: pcO}}, sopts)
		if fmt.Sprint(bi.Lines) != fmt.Sprint(bo.Lines) {
			t.Fatalf("seed %d tid %d: backward slices diverged:\ninline    %v\noffloaded %v",
				seed, tid, bi.Lines, bo.Lines)
		}
		if bi.Nodes != bo.Nodes || bi.Edges != bo.Edges || bi.TruncatedAtWindow != bo.TruncatedAtWindow {
			t.Fatalf("seed %d tid %d: backward traversal diverged: %d/%d nodes, %d/%d edges, truncated %v/%v",
				seed, tid, bi.Nodes, bo.Nodes, bi.Edges, bo.Edges, bi.TruncatedAtWindow, bo.TruncatedAtWindow)
		}
		sliceLines += len(bo.Lines)

		// Forward slice of the thread's first instance, over the raw
		// stored graphs (Forward consumes any ddg.Source).
		start := []ddg.ID{ddg.MakeID(tid, 1)}
		fi := slicing.Forward(ri, w.Prog, start, sopts)
		fo := slicing.Forward(ro, w.Prog, start, sopts)
		if fmt.Sprint(fi.Lines) != fmt.Sprint(fo.Lines) {
			t.Fatalf("seed %d tid %d: forward slices diverged:\ninline    %v\noffloaded %v",
				seed, tid, fi.Lines, fo.Lines)
		}
		sliceLines += len(fo.Lines)
	}
	// A workload with no stored records (e.g. input-free programs
	// under T2) legitimately has no threads to slice; otherwise empty
	// slices everywhere would make the comparison vacuous.
	if len(ti) > 0 && sliceLines == 0 {
		t.Fatalf("seed %d: every slice came back empty — vacuous comparison", seed)
	}
}

func TestOffloadedDifferentialAllWorkloads(t *testing.T) {
	opts := AllOptimizations()
	elided := uint64(0)
	for _, w := range prog.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for seed := uint64(0); seed < offSchedules; seed++ {
				tr, off := runOffDiff(t, w, opts, seed)
				diffStats(t, seed, tr, off)
				diffSlices(t, seed, w, opts, tr, off)
				s := off.Stats()
				elided += s.ElidedO1 + s.ElidedO2 + s.ElidedO3
			}
		})
	}
	if !t.Failed() && elided == 0 {
		t.Fatal("O1-O3 never elided anything through the offloaded stage")
	}
}

// TestOffloadedDifferentialUnoptimized repeats the check with every
// dependence stored (no elision, control deps on) on a couple of
// representative workloads, so storage equivalence is pinned without
// the optimizations masking anything.
func TestOffloadedDifferentialUnoptimized(t *testing.T) {
	for _, w := range []*prog.Workload{prog.Compress(200, 1), prog.MatMul(5, 3)} {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for seed := uint64(0); seed < offSchedules; seed++ {
				tr, off := runOffDiff(t, w, Unoptimized(), seed)
				diffStats(t, seed, tr, off)
				diffSlices(t, seed, w, Unoptimized(), tr, off)
			}
		})
	}
}

// TestOffloadedRingEquivalence pins the bounded case: with a buffer
// far smaller than the trace, the offloaded stage evicts exactly what
// the inline tracer evicts — one global ring over cross-thread append
// order — so the retained per-thread windows, the eviction count, the
// resident bytes and the (window-truncated) slices are identical.
func TestOffloadedRingEquivalence(t *testing.T) {
	opts := Unoptimized()
	opts.BufferBytes = 8 << 10
	for _, w := range []*prog.Workload{prog.MapReduceSquares(4, 400, 1), prog.PSum(4, 400, 1)} {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for seed := uint64(0); seed < offSchedules; seed++ {
				tr, off := runOffDiff(t, w, opts, seed)
				diffStats(t, seed, tr, off)
				bi, bo := tr.Buffer(), off.Buffer()
				if bi.EvictedChunks() == 0 {
					t.Fatalf("seed %d: the ring never evicted — vacuous", seed)
				}
				if bi.EvictedChunks() != bo.EvictedChunks() || bi.CurrentBytes() != bo.CurrentBytes() {
					t.Errorf("seed %d: ring diverged: evicted %d vs %d chunks, resident %d vs %d bytes", seed,
						bi.EvictedChunks(), bo.EvictedChunks(), bi.CurrentBytes(), bo.CurrentBytes())
				}
				diffSlices(t, seed, w, opts, tr, off)
			}
		})
	}
}

// TestOffloadedSelectiveAndT2 covers the targeted (lossy-by-design)
// T1/T2 filters through the offloaded stage.
func TestOffloadedSelectiveAndT2(t *testing.T) {
	opts := Options{ForwardSliceOfInputs: true, ControlDeps: true}
	for _, w := range []*prog.Workload{prog.Parser(100, 2), prog.Sort(24, 4)} {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for seed := uint64(0); seed < offSchedules; seed++ {
				tr, off := runOffDiff(t, w, opts, seed)
				diffStats(t, seed, tr, off)
				if off.Stats().ElidedT2 == 0 {
					t.Fatalf("seed %d: T2 elided nothing", seed)
				}
				diffSlices(t, seed, w, opts, tr, off)
			}
		})
	}
}
