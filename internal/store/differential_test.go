package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"scaldift/internal/ddg"
	"scaldift/internal/ontrac"
	"scaldift/internal/pipeline"
	"scaldift/internal/prog"
	"scaldift/internal/slicing"
)

// The on-disk differential suite: every prog.All() workload × 4
// randomized schedules, traced through the offloaded stage while
// spilling to a store, then REOPENED FROM DISK and held to the
// in-memory results — identical windows, identical backward and
// forward slices, over both the raw sources and the reconstructing
// ontrac readers, sequential and parallel.

const diffSchedules = 4

func runSpilled(t *testing.T, w *prog.Workload, opts ontrac.Options, seed uint64) (*ontrac.Offloaded, *Reader) {
	t.Helper()
	w.Cfg.Seed = seed
	w.Cfg.RandomPreempt = true
	if w.Cfg.Quantum == 0 {
		w.Cfg.Quantum = 11
	}
	dir := t.TempDir()
	// Small segments: exercise the multi-segment layout on every
	// workload.
	wr, err := Create(Options{Dir: dir, SegmentBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	m := w.NewMachine()
	popt := pipeline.Options{BatchEvents: []int{1, 7, 64, 256, 1024}[seed%5]}
	if seed%5 == 1 {
		popt.QueueDepth = 1
	}
	off := ontrac.NewOffloaded(w.Prog, opts, popt)
	off.SpillTo(wr)
	if res := ontrac.Trace(m, off); res.Failed {
		t.Fatalf("seed %d: run failed: %s", seed, res.FailMsg)
	}
	if err := wr.Close(); err != nil {
		t.Fatalf("seed %d: writer close: %v", seed, err)
	}
	if off.Buffer().SpilledChunks() != wr.ChunksSpilled() {
		t.Fatalf("seed %d: %d chunks sealed, %d written", seed,
			off.Buffer().SpilledChunks(), wr.ChunksSpilled())
	}
	r, err := Open(dir, ReaderOptions{Cache: NewChunkCache(16 << 10)})
	if err != nil {
		t.Fatalf("seed %d: reopen: %v", seed, err)
	}
	t.Cleanup(func() { r.Close() })
	return off, r
}

// diffSlices compares backward and forward slices between an
// in-memory source and its on-disk reopen, both raw and through the
// reconstructing readers, and holds ParallelBackward over the store
// to the sequential result.
func diffSlices(t *testing.T, seed uint64, w *prog.Workload, opts ontrac.Options, off *ontrac.Offloaded, r *Reader) {
	t.Helper()
	mem := off.Buffer()
	memR, diskR := off.Reader(), off.ReaderOver(r)
	if fmt.Sprint(mem.Threads()) != fmt.Sprint(r.Threads()) {
		t.Fatalf("seed %d: threads diverged: mem %v, disk %v", seed, mem.Threads(), r.Threads())
	}
	sopts := slicing.Options{FollowControl: opts.ControlDeps}
	sliceLines := 0
	for _, tid := range mem.Threads() {
		mlo, mhi := mem.Window(tid)
		dlo, dhi := r.Window(tid)
		if mlo != dlo || mhi != dhi {
			t.Fatalf("seed %d tid %d: windows diverged: mem [%d,%d], disk [%d,%d]",
				seed, tid, mlo, mhi, dlo, dhi)
		}
		crit := ddg.MakeID(tid, mhi)
		pcM, okM := mem.NodePC(crit)
		pcD, okD := r.NodePC(crit)
		if okM != okD || pcM != pcD {
			t.Fatalf("seed %d tid %d: NodePC diverged: (%d,%v) vs (%d,%v)",
				seed, tid, pcM, okM, pcD, okD)
		}
		if !okM {
			pcM, pcD = -1, -1
		}

		// Raw backward slices (no reconstruction).
		bm := slicing.Backward(mem, w.Prog, []slicing.Criterion{{ID: crit, PC: pcM}}, sopts)
		bd := slicing.Backward(r, w.Prog, []slicing.Criterion{{ID: crit, PC: pcD}}, sopts)
		if fmt.Sprint(bm.Lines) != fmt.Sprint(bd.Lines) || bm.Nodes != bd.Nodes || bm.Edges != bd.Edges {
			t.Fatalf("seed %d tid %d: raw backward diverged:\nmem  %v (%d/%d)\ndisk %v (%d/%d)",
				seed, tid, bm.Lines, bm.Nodes, bm.Edges, bd.Lines, bd.Nodes, bd.Edges)
		}

		// Reconstructing backward slices (O1/O2 edges re-synthesized
		// over the on-disk records).
		rm := slicing.Backward(memR, w.Prog, []slicing.Criterion{{ID: crit, PC: pcM}}, sopts)
		rd := slicing.Backward(diskR, w.Prog, []slicing.Criterion{{ID: crit, PC: pcD}}, sopts)
		if fmt.Sprint(rm.Lines) != fmt.Sprint(rd.Lines) || rm.Nodes != rd.Nodes || rm.Edges != rd.Edges {
			t.Fatalf("seed %d tid %d: reconstructed backward diverged:\nmem  %v\ndisk %v",
				seed, tid, rm.Lines, rd.Lines)
		}
		sliceLines += len(rd.Lines)

		// The parallel traversal over the on-disk store must agree
		// with the sequential one. Raw source only: O2 reconstruction
		// can attach different PC hints to a node depending on which
		// edge discovers it first, so hinted traversals are only
		// order-stable for exact sources.
		pd := slicing.ParallelBackward(r, w.Prog, []slicing.Criterion{{ID: crit, PC: pcD}}, sopts, 4)
		if fmt.Sprint(pd.Lines) != fmt.Sprint(bd.Lines) || pd.Nodes != bd.Nodes || pd.Edges != bd.Edges {
			t.Fatalf("seed %d tid %d: ParallelBackward diverged from Backward over the store",
				seed, tid)
		}

		// Forward slices over the raw sources.
		start := []ddg.ID{ddg.MakeID(tid, 1)}
		fm := slicing.Forward(mem, w.Prog, start, sopts)
		fd := slicing.Forward(r, w.Prog, start, sopts)
		if fmt.Sprint(fm.Lines) != fmt.Sprint(fd.Lines) {
			t.Fatalf("seed %d tid %d: forward diverged:\nmem  %v\ndisk %v",
				seed, tid, fm.Lines, fd.Lines)
		}
		sliceLines += len(fd.Lines)
	}
	if len(mem.Threads()) > 0 && sliceLines == 0 {
		t.Fatalf("seed %d: every slice came back empty — vacuous comparison", seed)
	}
}

func TestStoreDifferentialAllWorkloads(t *testing.T) {
	opts := ontrac.AllOptimizations()
	opts.BufferBytes = 0 // memory reference must be unbounded
	for _, w := range prog.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for seed := uint64(0); seed < diffSchedules; seed++ {
				off, r := runSpilled(t, w, opts, seed)
				diffSlices(t, seed, w, opts, off, r)
			}
		})
	}
}

// TestStoreDifferentialUnoptimized repeats the check with every
// dependence stored, so the on-disk records carry the whole graph
// with no reconstruction masking encoding bugs.
func TestStoreDifferentialUnoptimized(t *testing.T) {
	for _, w := range []*prog.Workload{prog.Compress(200, 1), prog.MatMul(5, 3)} {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for seed := uint64(0); seed < diffSchedules; seed++ {
				off, r := runSpilled(t, w, ontrac.Unoptimized(), seed)
				diffSlices(t, seed, w, ontrac.Unoptimized(), off, r)
			}
		})
	}
}

// TestStoreBeyondMemoryCap is the whole-execution payoff: a run whose
// trace exceeds the in-memory cap rings in memory (backward slices
// truncate at the window) while the store retains everything — the
// reopened slice is identical to an unbounded in-memory run's and is
// NOT truncated.
func TestStoreBeyondMemoryCap(t *testing.T) {
	mk := func() *prog.Workload { return prog.Compress(3000, 1) }
	opts := ontrac.Unoptimized() // store everything: maximum pressure

	// Reference: unbounded inline tracer.
	ref := mk()
	mRef := ref.NewMachine()
	trRef := ontrac.New(ref.Prog, opts)
	mRef.AttachTool(trRef.Tool())
	if res := mRef.Run(); res.Failed {
		t.Fatal(res.FailMsg)
	}

	// Capped inline tracer, spilling to a store.
	capped := mk()
	cOpts := opts
	cOpts.BufferBytes = 8 << 10 // far below the trace size
	dir := t.TempDir()
	wr, err := Create(Options{Dir: dir, SegmentBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	mCap := capped.NewMachine()
	trCap := ontrac.New(capped.Prog, cOpts)
	trCap.Buffer().SetSpill(wr)
	mCap.AttachTool(trCap.Tool())
	if res := mCap.Run(); res.Failed {
		t.Fatal(res.FailMsg)
	}
	trCap.Buffer().Flush()
	if err := wr.Close(); err != nil {
		t.Fatal(err)
	}
	if trCap.Buffer().EvictedChunks() == 0 {
		t.Fatal("cap never evicted — raise the workload size")
	}

	r, err := Open(dir, ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Same deterministic schedule → same trace: windows must agree
	// between the unbounded memory run and the capped run's store.
	lo, hi := trRef.Buffer().Window(0)
	slo, shi := r.Window(0)
	if lo != slo || hi != shi {
		t.Fatalf("windows: unbounded mem [%d,%d], reopened store [%d,%d]", lo, hi, slo, shi)
	}
	mlo, _ := trCap.Buffer().Window(0)
	if mlo <= lo {
		t.Fatal("capped memory window should have lost the oldest records")
	}

	crit := ddg.MakeID(0, hi)
	pc, ok := trRef.Buffer().NodePC(crit)
	if !ok {
		t.Fatal("no record at window top")
	}
	crits := []slicing.Criterion{{ID: crit, PC: pc}}
	sopts := slicing.Options{FollowControl: true}

	// Note: even an unbounded Compact reports TruncatedAtWindow when
	// an edge points below the first RECORDED instance (defs that
	// stored no record), so the flag is compared, not asserted off.
	want := slicing.Backward(trRef.Buffer(), ref.Prog, crits, sopts)
	gotMem := slicing.Backward(trCap.Buffer(), capped.Prog, crits, sopts)
	gotDisk := slicing.Backward(r, capped.Prog, crits, sopts)
	if fmt.Sprint(want.Lines) != fmt.Sprint(gotDisk.Lines) ||
		want.Nodes != gotDisk.Nodes || want.Edges != gotDisk.Edges ||
		want.TruncatedAtWindow != gotDisk.TruncatedAtWindow {
		t.Fatalf("whole-execution slice diverged:\nunbounded mem %v (%d/%d)\nreopened disk %v (%d/%d)",
			want.Lines, want.Nodes, want.Edges, gotDisk.Lines, gotDisk.Nodes, gotDisk.Edges)
	}
	// The ring-bounded traversal must have been cut short: history
	// the ring dropped is sliceable only through the store.
	if gotMem.Nodes >= want.Nodes {
		t.Fatalf("truncated slice visited %d nodes, whole-execution %d", gotMem.Nodes, want.Nodes)
	}
}

// TestStoreRecordingIsReproducible: two recordings of one
// multi-thread schedule leave byte-identical segment files. Every
// thread still has a chunk open when the run ends, and the order
// Flush seals them in decides their global sequence numbers — ranging
// over a map there made this fail or pass by luck.
func TestStoreRecordingIsReproducible(t *testing.T) {
	segs := func() map[string][]byte {
		_, r := runSpilled(t, prog.PSum(4, 400, 1), ontrac.StaticOptions(), 3)
		files, err := filepath.Glob(filepath.Join(r.dir, "*.seg"))
		if err != nil || len(files) < 4 {
			t.Fatalf("segment files: %v, %v", files, err)
		}
		out := make(map[string][]byte)
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			out[filepath.Base(f)] = b
		}
		return out
	}
	first := segs()
	for run := 0; run < 4; run++ {
		again := segs()
		if len(again) != len(first) {
			t.Fatalf("run %d wrote %d segment files, first run %d", run, len(again), len(first))
		}
		for name, b := range first {
			if !bytes.Equal(b, again[name]) {
				t.Fatalf("run %d: %s differs from the first recording", run, name)
			}
		}
	}
}
