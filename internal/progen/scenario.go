package progen

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"scaldift/internal/bdd"
	"scaldift/internal/ddg"
	"scaldift/internal/dift"
	"scaldift/internal/isa"
	"scaldift/internal/lineage"
	"scaldift/internal/ontrac"
	"scaldift/internal/pipeline"
	"scaldift/internal/query"
	"scaldift/internal/slicing"
	"scaldift/internal/store"
	"scaldift/internal/vm"
)

// cacheBytes budgets every decoded-chunk cache the legs read through:
// a handful of chunks, so eviction runs on every corpus seed.
const cacheBytes = 16 << 10

// Scenario is the differential harness: it generates the program for
// seed under cfg, computes ground truth with the brute-force oracle,
// then runs the program through every engine configuration — the
// inline DIFT engine (boolean, PC, and lineage domains), the batched
// pipeline in all three domains, offloaded ONTRAC spilling to a real
// on-disk store, slicing over the reopened store.Reader, the query
// service over real HTTP, and an elided (O1+O3) recording sliced
// through reconstruction — failing the test on the first divergence
// from the oracle. It returns the oracle run for further assertions.
//
// A new scenario is one line per seed:
//
//	progen.Scenario(t, 12345, progen.DefaultGenConfig())
//
//scaldift:ignore deadexport test-support: the one-line regression entry point for a failing seed
func Scenario(tb testing.TB, seed uint64, cfg GenConfig) *OracleRun {
	tb.Helper()
	g := Generate(seed, cfg)
	want := RunOracle(g.Prog, g.Inputs, g.Par)
	if want.Failed || want.Reason != StopHalted {
		tb.Fatalf("progen seed %d: oracle run stopped with %q (pc %d tid %d: %s) — the generator emitted a misbehaving program:\n%s",
			seed, want.Reason, want.FailPC, want.FailTID, want.FailMsg, g.Prog.Disassemble())
	}
	s := &scenario{tb: tb, g: g, want: want,
		bits: lineage.BitsFor(len(g.Inputs[ChIn]) + 8)}
	s.inline()
	s.pipelines()
	s.offloaded()
	return want
}

type scenario struct {
	tb   testing.TB
	g    *Generated
	want *OracleRun
	bits int
}

// failf fails with the seed and full program attached, so any
// divergence is immediately reproducible and shrinkable.
func (s *scenario) failf(leg, format string, args ...any) {
	s.tb.Helper()
	s.tb.Fatalf("progen seed %d [%s]: %s\n%s",
		s.g.Seed, leg, fmt.Sprintf(format, args...), s.g.Prog.Disassemble())
}

func (s *scenario) newMachine() *vm.Machine {
	p := s.g.Par
	m := vm.MustNew(s.g.Prog, vm.Config{
		MemWords:      p.MemWords,
		StackWords:    p.StackWords,
		MaxThreads:    p.MaxThreads,
		Quantum:       p.Quantum,
		Seed:          p.Seed,
		MaxSteps:      p.MaxSteps,
		RandomPreempt: p.RandomPreempt,
	})
	for ch, words := range s.g.Inputs {
		m.SetInput(ch, words)
	}
	return m
}

// checkRun compares the architectural outcome of a VM run — stop
// reason, step counts, consumed inputs, outputs, thread structure —
// against the oracle.
func (s *scenario) checkRun(leg string, m *vm.Machine, res *vm.Result) {
	s.tb.Helper()
	w := s.want
	if uint8(res.Reason) != uint8(w.Reason) || res.Failed != w.Failed {
		s.failf(leg, "stop diverged: vm %v/failed=%v, oracle %v/failed=%v (%s)",
			res.Reason, res.Failed, w.Reason, w.Failed, res.FailMsg)
	}
	if res.Steps != w.Steps {
		s.failf(leg, "steps diverged: vm %d, oracle %d", res.Steps, w.Steps)
	}
	if m.InputsConsumed() != w.InputsConsumed {
		s.failf(leg, "inputs consumed diverged: vm %d, oracle %d",
			m.InputsConsumed(), w.InputsConsumed)
	}
	if got, want := fmt.Sprint(m.Output(ChOut)), fmt.Sprint(w.Outputs[ChOut]); got != want {
		s.failf(leg, "outputs diverged:\nvm     %s\noracle %s", got, want)
	}
	for tid := 0; tid < w.NumThreads; tid++ {
		th := m.Thread(tid)
		if th == nil {
			s.failf(leg, "vm is missing thread %d (oracle has %d)", tid, w.NumThreads)
		}
		if th.Steps != w.ThreadSteps[tid] {
			s.failf(leg, "thread %d steps diverged: vm %d, oracle %d",
				tid, th.Steps, w.ThreadSteps[tid])
		}
	}
	if m.Thread(w.NumThreads) != nil {
		s.failf(leg, "vm has more threads than the oracle's %d", w.NumThreads)
	}
}

// capSink copies sink callbacks with their event metadata; the
// engines fire it in global sequence order, inline and pipelined.
type capRec[L comparable] struct {
	Ch  int
	Seq uint64
	PC  int
	Val int64
	L   L
}

type capSink[L comparable] struct {
	outs []capRec[L]
	brs  []capRec[L]
}

func (c *capSink[L]) OnOutput(ev *vm.Event, l L) {
	c.outs = append(c.outs, capRec[L]{ev.Ch, ev.Seq, ev.PC, ev.IOVal, l})
}

func (c *capSink[L]) OnIndirectBranch(ev *vm.Event, l L) {
	c.brs = append(c.brs, capRec[L]{0, ev.Seq, ev.PC, 0, l})
}

// taintView is the read surface shared by dift.Engine and
// pipeline.Pipeline that the comparisons run against.
type taintView[L comparable] interface {
	RegTaint(tid, r int) L
	MemTaint(addr int64) L
	TaintedWords() int
}

// checkBool compares a boolean-domain engine to the oracle.
func (s *scenario) checkBool(leg string, v taintView[bool], sink *capSink[bool]) {
	s.tb.Helper()
	w := s.want
	if len(sink.outs) != len(w.Outs) {
		s.failf(leg, "output count diverged: engine %d, oracle %d", len(sink.outs), len(w.Outs))
	}
	for i, got := range sink.outs {
		o := w.Outs[i]
		if got.Ch != o.Ch || got.Seq != o.Seq || got.PC != o.PC || got.Val != o.Val || got.L != o.Bool {
			s.failf(leg, "output %d diverged: engine %+v, oracle %+v", i, got, o)
		}
	}
	if len(sink.brs) != len(w.Branches) {
		s.failf(leg, "branch sink count diverged: engine %d, oracle %d", len(sink.brs), len(w.Branches))
	}
	for i, got := range sink.brs {
		if o := w.Branches[i]; got.Seq != o.Seq || got.PC != o.PC || got.L != o.Bool {
			s.failf(leg, "branch %d diverged: engine %+v, oracle %+v", i, got, o)
		}
	}
	for tid := 0; tid < w.NumThreads; tid++ {
		for r := 0; r < len(w.RegsBool[tid]); r++ {
			if got := v.RegTaint(tid, r); got != w.RegsBool[tid][r] {
				s.failf(leg, "reg taint diverged at tid %d r%d: engine %v, oracle %v",
					tid, r, got, w.RegsBool[tid][r])
			}
		}
	}
	for addr := range w.MemBool {
		if !v.MemTaint(addr) {
			s.failf(leg, "mem taint lost at word %d", addr)
		}
	}
	if got := v.TaintedWords(); got != len(w.MemBool) {
		s.failf(leg, "tainted word count diverged: engine %d, oracle %d", got, len(w.MemBool))
	}
}

// checkPC compares a PC-domain engine to the oracle.
func (s *scenario) checkPC(leg string, v taintView[dift.PCLabel], sink *capSink[dift.PCLabel]) {
	s.tb.Helper()
	w := s.want
	if len(sink.outs) != len(w.Outs) {
		s.failf(leg, "output count diverged: engine %d, oracle %d", len(sink.outs), len(w.Outs))
	}
	for i, got := range sink.outs {
		o := w.Outs[i]
		if got.Ch != o.Ch || got.Seq != o.Seq || got.PC != o.PC || got.Val != o.Val || int32(got.L) != o.PCLabel {
			s.failf(leg, "output %d diverged: engine %+v, oracle %+v", i, got, o)
		}
	}
	if len(sink.brs) != len(w.Branches) {
		s.failf(leg, "branch sink count diverged: engine %d, oracle %d", len(sink.brs), len(w.Branches))
	}
	for i, got := range sink.brs {
		if o := w.Branches[i]; got.Seq != o.Seq || got.PC != o.PC || int32(got.L) != o.PCLabel {
			s.failf(leg, "branch %d diverged: engine %+v, oracle %+v", i, got, o)
		}
	}
	for tid := 0; tid < w.NumThreads; tid++ {
		for r := 0; r < len(w.RegsPC[tid]); r++ {
			if got := int32(v.RegTaint(tid, r)); got != w.RegsPC[tid][r] {
				s.failf(leg, "PC taint diverged at tid %d r%d: engine %d, oracle %d",
					tid, r, got, w.RegsPC[tid][r])
			}
		}
	}
	for addr, want := range w.MemPC {
		if got := int32(v.MemTaint(addr)); got != want {
			s.failf(leg, "mem PC taint diverged at word %d: engine %d, oracle %d", addr, got, want)
		}
	}
	if got := v.TaintedWords(); got != len(w.MemPC) {
		s.failf(leg, "PC tainted word count diverged: engine %d, oracle %d", got, len(w.MemPC))
	}
}

// checkLineage compares a lineage-domain engine to the oracle; raw
// roBDD refs are manager-local, so sets are compared element-wise.
func (s *scenario) checkLineage(leg string, man *bdd.Manager, v taintView[bdd.Ref], rec *lineage.Recorder) {
	s.tb.Helper()
	w := s.want
	if len(rec.Outputs) != len(w.Outs) {
		s.failf(leg, "output count diverged: engine %d, oracle %d", len(rec.Outputs), len(w.Outs))
	}
	for i, got := range rec.Outputs {
		o := w.Outs[i]
		if got.Ch != o.Ch || got.Seq != o.Seq || got.PC != o.PC || got.Val != o.Val {
			s.failf(leg, "output %d metadata diverged: engine %+v, oracle %+v", i, got, o)
		}
		if els := man.Elements(got.Set, nil); !lineage.SortedEquals(els, o.Lineage) {
			s.failf(leg, "output %d lineage diverged:\nengine %v\noracle %v", i, els, o.Lineage)
		}
	}
	for tid := 0; tid < w.NumThreads; tid++ {
		for r := 0; r < len(w.RegsLineage[tid]); r++ {
			els := man.Elements(v.RegTaint(tid, r), nil)
			if !lineage.SortedEquals(els, w.RegsLineage[tid][r]) {
				s.failf(leg, "lineage diverged at tid %d r%d:\nengine %v\noracle %v",
					tid, r, els, w.RegsLineage[tid][r])
			}
		}
	}
	for addr, want := range w.MemLineage {
		els := man.Elements(v.MemTaint(addr), nil)
		if !lineage.SortedEquals(els, want) {
			s.failf(leg, "mem lineage diverged at word %d:\nengine %v\noracle %v", addr, els, want)
		}
	}
	if got := v.TaintedWords(); got != len(w.MemLineage) {
		s.failf(leg, "lineage tainted word count diverged: engine %d, oracle %d",
			got, len(w.MemLineage))
	}
}

// inline runs one machine with all three inline engines attached.
func (s *scenario) inline() {
	s.tb.Helper()
	m := s.newMachine()
	be := dift.NewEngine[bool](dift.Bool{}, dift.DefaultPolicy())
	bs := &capSink[bool]{}
	be.AddSink(bs)
	pe := dift.NewEngine[dift.PCLabel](dift.PC{}, dift.DefaultPolicy())
	ps := &capSink[dift.PCLabel]{}
	pe.AddSink(ps)
	ld := lineage.NewDomain(s.bits)
	le := dift.NewEngine[bdd.Ref](ld, dift.DefaultPolicy())
	lr := lineage.NewRecorder(ld)
	le.AddSink(lr)
	m.AttachTool(be)
	m.AttachTool(pe)
	m.AttachTool(le)
	s.checkRun("inline", m, m.Run())
	s.checkBool("inline", be, bs)
	s.checkPC("inline", pe, ps)
	s.checkLineage("inline", ld.Manager(), le, lr)
}

// pipelines runs the batched pipeline once per domain, each on a
// fresh machine with the identical schedule.
func (s *scenario) pipelines() {
	s.tb.Helper()
	popt := pipeline.Options{BatchEvents: 48}

	m := s.newMachine()
	bp := pipeline.New[bool](dift.Bool{}, dift.DefaultPolicy(), popt)
	bs := &capSink[bool]{}
	bp.AddSink(bs)
	s.checkRun("pipeline-bool", m, pipeline.Run(m, bp))
	s.checkBool("pipeline-bool", bp, bs)

	m = s.newMachine()
	pp := pipeline.New[dift.PCLabel](dift.PC{}, dift.DefaultPolicy(), popt)
	ps := &capSink[dift.PCLabel]{}
	pp.AddSink(ps)
	s.checkRun("pipeline-pc", m, pipeline.Run(m, pp))
	s.checkPC("pipeline-pc", pp, ps)

	m = s.newMachine()
	ld := lineage.NewDomain(s.bits)
	lp := pipeline.New[bdd.Ref](ld, dift.DefaultPolicy(), popt)
	lr := lineage.NewRecorder(ld)
	lp.AddSink(lr)
	s.checkRun("pipeline-lineage", m, pipeline.Run(m, lp))
	s.checkLineage("pipeline-lineage", ld.Manager(), lp, lr)
}

// graphSource is the read surface shared by ontrac.Reader,
// store.Reader, and every other ddg.Source the graph legs compare.
type graphSource interface {
	ddg.Source
}

// checkGraph compares a recorded dependence graph — thread windows,
// node PCs, and backward/forward slices from each thread's window
// edges — against the oracle's brute-force closures. workers > 0
// selects the parallel slicers.
func (s *scenario) checkGraph(leg string, src graphSource, workers int) {
	s.tb.Helper()
	w := s.want
	wantTIDs := w.RecordedThreads()
	gotTIDs := append([]int(nil), src.Threads()...)
	sort.Ints(gotTIDs)
	if fmt.Sprint(gotTIDs) != fmt.Sprint(wantTIDs) {
		s.failf(leg, "recorded threads diverged: engine %v, oracle %v", gotTIDs, wantTIDs)
	}
	checked := 0
	for _, tid := range wantTIDs {
		lo, hi := w.RecordedWindow(tid)
		if glo, ghi := src.Window(tid); glo != lo || ghi != hi {
			s.failf(leg, "tid %d window diverged: engine [%d,%d], oracle [%d,%d]",
				tid, glo, ghi, lo, hi)
		}
		wantPC, _ := w.NodePC(tid, hi)
		if gotPC, ok := src.NodePC(ddg.MakeID(tid, hi)); !ok || gotPC != wantPC {
			s.failf(leg, "tid %d node PC at n=%d diverged: engine %d (ok=%v), oracle %d",
				tid, hi, gotPC, ok, wantPC)
		}

		crit := []slicing.Criterion{{ID: ddg.MakeID(tid, hi), PC: wantPC}}
		var back *slicing.Slice
		if workers > 0 {
			back = slicing.ParallelBackward(src, s.g.Prog, crit, slicing.Options{}, workers)
		} else {
			back = slicing.Backward(src, s.g.Prog, crit, slicing.Options{})
		}
		// No TruncatedAtWindow assertion: a thread's stored window
		// starts at its first dep-having instance, so edges to earlier
		// dep-free defs legitimately raise the (pessimistic) flag even
		// with an unbounded buffer; the PC set stays complete because
		// such defs have nothing to expand.
		s.checkPCSet(leg+"/backward", tid, back.PCs, w.BackwardPCs(tid, hi))

		start := []ddg.ID{ddg.MakeID(tid, lo)}
		var fwd *slicing.Slice
		if workers > 0 {
			fwd = slicing.ParallelForward(src, s.g.Prog, start, slicing.Options{}, workers)
		} else {
			fwd = slicing.Forward(src, s.g.Prog, start, slicing.Options{})
		}
		s.checkPCSet(leg+"/forward", tid, fwd.PCs, w.ForwardPCs(tid, lo))
		checked++
	}
	if checked == 0 {
		s.failf(leg, "no thread recorded any dependence — vacuous comparison")
	}
}

func (s *scenario) checkPCSet(leg string, tid int, got, want map[int32]bool) {
	s.tb.Helper()
	if fmt.Sprint(sortPCSet(got)) != fmt.Sprint(sortPCSet(want)) {
		s.failf(leg, "tid %d slice PCs diverged:\nengine %v\noracle %v",
			tid, sortPCSet(got), sortPCSet(want))
	}
}

func sortPCSet(m map[int32]bool) []int32 {
	out := make([]int32, 0, len(m))
	for pc, in := range m {
		if in {
			out = append(out, pc)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// recordSink tees the chunk stream to the real writer while keeping a
// copy, so later legs can replay the identical recording through
// differently-configured stores.
type recordSink struct {
	next   ddg.ChunkSink
	chunks []ddg.RawChunk
}

// SpillChunk runs on the tracer's one writer goroutine; the copy is
// read only after the run has closed.
func (rs *recordSink) SpillChunk(ch ddg.RawChunk) {
	rs.chunks = append(rs.chunks, ch)
	rs.next.SpillChunk(ch)
}

// offloaded runs ONTRAC offloaded with an exact (unelided) recording
// spilled to disk, then compares five views of the same graph: the
// in-memory buffer, the reopened store.Reader (parallel slicers), the
// query service over real HTTP, an elided O1+O3 recording sliced
// through reconstruction, and a replay into a retention-budgeted
// store trimmed mid-run.
func (s *scenario) offloaded() {
	s.tb.Helper()
	root := s.tb.TempDir()
	dir := filepath.Join(root, fmt.Sprintf("trace-%d", s.g.Seed))
	wr, err := store.Create(store.Options{Dir: dir, SegmentBytes: 8 << 10})
	if err != nil {
		s.tb.Fatal(err)
	}
	m := s.newMachine()
	off := ontrac.NewOffloaded(s.g.Prog, ontrac.Options{}, pipeline.Options{})
	rec := &recordSink{next: wr}
	off.SpillTo(rec)
	s.checkRun("ontrac", m, ontrac.Trace(m, off))
	if err := wr.Close(); err != nil {
		s.tb.Fatal(err)
	}
	s.checkGraph("ontrac", off.Reader(), 0)

	r, err := store.Open(dir, store.ReaderOptions{Cache: store.NewChunkCache(cacheBytes)})
	if err != nil {
		s.tb.Fatal(err)
	}
	s.checkGraph("store", r, 2)
	r.Close()

	s.served(root, dir)
	s.elided()
	s.liveAttached()
	s.trimmed(rec.chunks)
}

// served registers the spilled trace and holds the HTTP query service
// to the oracle's slices and provenance.
func (s *scenario) served(root, dir string) {
	s.tb.Helper()
	w := s.want
	reg := query.NewRegistry([]string{root}, query.RegistryOptions{CacheBytes: cacheBytes})
	added, err := reg.Refresh()
	if err != nil {
		s.tb.Fatal(err)
	}
	if len(added) != 1 {
		s.failf("http", "registry found %d traces, want 1", len(added))
	}
	id := filepath.Base(dir)
	if err := reg.AttachProgram(id, s.g.Prog, ontrac.Options{}); err != nil {
		s.tb.Fatal(err)
	}
	srv := httptest.NewServer(query.NewServer(reg, query.ServerOptions{MaxConcurrent: 2}).Handler())
	defer srv.Close()
	cl := query.NewClient(srv.URL, srv.Client())
	ctx := context.Background()

	var provCrits []query.Criterion
	wantInputs := map[int32]bool{}
	for _, tid := range w.RecordedThreads() {
		lo, hi := w.RecordedWindow(tid)
		resp, err := cl.Slice(ctx, &query.SliceRequest{
			Trace: id, Direction: query.DirBackward,
			Criteria: []query.Criterion{{TID: tid, N: hi}},
		})
		if err != nil {
			s.tb.Fatal(err)
		}
		back := w.BackwardPCs(tid, hi)
		if fmt.Sprint(resp.PCs) != fmt.Sprint(sortPCSet(back)) {
			s.failf("http", "tid %d served backward PCs diverged:\nserved %v\noracle %v",
				tid, resp.PCs, sortPCSet(back))
		}
		fresp, err := cl.Slice(ctx, &query.SliceRequest{
			Trace: id, Direction: query.DirForward,
			Criteria: []query.Criterion{{TID: tid, N: lo}},
		})
		if err != nil {
			s.tb.Fatal(err)
		}
		if fwd := w.ForwardPCs(tid, lo); fmt.Sprint(fresp.PCs) != fmt.Sprint(sortPCSet(fwd)) {
			s.failf("http", "tid %d served forward PCs diverged:\nserved %v\noracle %v",
				tid, fresp.PCs, sortPCSet(fwd))
		}

		provCrits = append(provCrits, query.Criterion{TID: tid, N: hi})
		for pc := range back {
			if int(pc) < len(s.g.Prog.Instrs) && s.g.Prog.Instrs[pc].Op == isa.IN {
				wantInputs[pc] = true
			}
		}
	}

	prov, err := cl.Provenance(ctx, &query.ProvenanceRequest{Trace: id, Criteria: provCrits})
	if err != nil {
		s.tb.Fatal(err)
	}
	if fmt.Sprint(prov.InputPCs) != fmt.Sprint(sortPCSet(wantInputs)) {
		s.failf("http", "served provenance diverged:\nserved %v\noracle %v",
			prov.InputPCs, sortPCSet(wantInputs))
	}
}

// elided re-records with O1+O3 elision and checks backward data
// slices reconstructed through the elided reader for soundness
// against ground truth. Two deliberate asymmetries versus the exact
// legs: reconstruction re-infers statically resolved in-block
// dependences, which can add edges whose dynamic taint never flowed
// (an over-approximation that only grows the slice); and an elided
// trace's stored window starts at the thread's first *stored* record,
// so the slicer truncates below it exactly as it would at a real
// buffer eviction. The oracle mirrors the truncation rule
// (BackwardPCsBounded over the elided reader's own windows); within
// it, reconstruction must never lose a statement.
func (s *scenario) elided() {
	s.tb.Helper()
	w := s.want
	m := s.newMachine()
	off := ontrac.NewOffloaded(s.g.Prog, ontrac.StaticOptions(), pipeline.Options{})
	s.checkRun("ontrac-elided", m, ontrac.Trace(m, off))
	r := off.Reader()
	lows := make(map[int]uint64)
	for _, tid := range r.Threads() {
		lows[tid], _ = r.Window(tid)
	}
	for _, tid := range w.RecordedThreads() {
		_, hi := w.RecordedWindow(tid)
		pc, _ := w.NodePC(tid, hi)
		back := slicing.Backward(r, s.g.Prog,
			[]slicing.Criterion{{ID: ddg.MakeID(tid, hi), PC: pc}}, slicing.Options{})
		want := w.BackwardPCsBounded(tid, hi, lows, nil)
		for wantPC := range want {
			if !back.PCs[wantPC] {
				s.failf("elided/backward", "tid %d: reconstruction lost pc %d:\nengine %v\noracle %v",
					tid, wantPC, sortPCSet(back.PCs), sortPCSet(want))
			}
		}
	}
}

// trimmed replays the exact recording into a store holding a live
// retention byte budget over tiny segments, so sealing plans,
// journals, and applies trims mid-run. Slices from each thread's
// newest recorded instance over the reopened trimmed store must match
// the oracle's BackwardPCsBounded closure over the surviving window —
// a dependence reaching below a thread's trimmed floor contributes
// its PC and stops, exactly like the old ring's eviction truncation.
// Then the served path registers the same store: a repeated identical
// query must come back from the result cache (hit flag and counter
// asserted), and a janitor trim's generation bump must invalidate it,
// with the recomputed answer matching the re-bounded oracle closure.
func (s *scenario) trimmed(chunks []ddg.RawChunk) {
	s.tb.Helper()
	w := s.want
	root := s.tb.TempDir()
	dir := filepath.Join(root, fmt.Sprintf("trim-%d", s.g.Seed))
	wr, err := store.Create(store.Options{Dir: dir, SegmentBytes: 2 << 10,
		Retain: store.Retention{MaxBytes: 8 << 10}})
	if err != nil {
		s.tb.Fatal(err)
	}
	for _, ch := range chunks {
		wr.SpillChunk(ch)
	}
	if err := wr.Close(); err != nil {
		s.tb.Fatal(err)
	}

	r, err := store.Open(dir, store.ReaderOptions{Cache: store.NewChunkCache(cacheBytes)})
	if err != nil {
		s.tb.Fatal(err)
	}
	defer r.Close()

	// The oracle's truncation bound per thread: the surviving window's
	// lo, or one past the newest instance when retention evicted the
	// whole thread (the slicer dead-ends at its criterion the same
	// way).
	oracleLows := func(r *store.Reader) map[int]uint64 {
		lows := make(map[int]uint64)
		for _, tid := range r.Threads() {
			lows[tid], _ = r.Window(tid)
		}
		for _, tid := range w.RecordedThreads() {
			if _, ok := lows[tid]; !ok {
				_, hi := w.RecordedWindow(tid)
				lows[tid] = hi + 1
			}
		}
		return lows
	}
	lows := oracleLows(r)
	for _, tid := range w.RecordedThreads() {
		_, hi := w.RecordedWindow(tid)
		pc, _ := w.NodePC(tid, hi)
		back := slicing.Backward(r, s.g.Prog,
			[]slicing.Criterion{{ID: ddg.MakeID(tid, hi), PC: pc}}, slicing.Options{})
		s.checkPCSet("trimmed/backward", tid, back.PCs, w.BackwardPCsBounded(tid, hi, lows, nil))
	}

	// Served: dashboard-style repeats hit the result cache; the next
	// trim's generation bump invalidates it naturally.
	reg := query.NewRegistry([]string{root}, query.RegistryOptions{CacheBytes: cacheBytes})
	if _, err := reg.Refresh(); err != nil {
		s.tb.Fatal(err)
	}
	defer reg.Close()
	id := filepath.Base(dir)
	srv := httptest.NewServer(query.NewServer(reg, query.ServerOptions{MaxConcurrent: 2}).Handler())
	defer srv.Close()
	cl := query.NewClient(srv.URL, srv.Client())
	ctx := context.Background()

	tid := w.RecordedThreads()[0]
	_, hi := w.RecordedWindow(tid)
	if _, ok := lows[tid]; ok && lows[tid] > hi {
		// This thread was fully evicted; its frontier criterion cannot
		// resolve over the wire (N=0 has no window). Any surviving
		// thread serves the cache check equally well.
		for _, cand := range r.Threads() {
			tid = cand
			_, hi = w.RecordedWindow(tid)
			break
		}
	}
	req := &query.SliceRequest{Trace: id, Direction: query.DirBackward,
		Criteria: []query.Criterion{{TID: tid, N: hi}}}
	resp1, err := cl.Slice(ctx, req)
	if err != nil {
		s.tb.Fatal(err)
	}
	if resp1.Cached {
		s.failf("trimmed/http", "first served query claims a cache hit")
	}
	if want := w.BackwardPCsBounded(tid, hi, lows, nil); fmt.Sprint(resp1.PCs) != fmt.Sprint(sortPCSet(want)) {
		s.failf("trimmed/http", "tid %d served trimmed PCs diverged:\nserved %v\noracle %v",
			tid, resp1.PCs, sortPCSet(want))
	}
	resp2, err := cl.Slice(ctx, req)
	if err != nil {
		s.tb.Fatal(err)
	}
	if !resp2.Cached {
		s.failf("trimmed/http", "repeated identical query missed the result cache")
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		s.tb.Fatal(err)
	}
	if st.ResultCacheHits < 1 {
		s.failf("trimmed/http", "stats report %d result-cache hits after a served hit", st.ResultCacheHits)
	}

	// A janitor trim under a tighter budget: any removal must bump the
	// generation and drop the cached answer; the recomputation is held
	// to the re-bounded oracle closure.
	tr, _ := reg.Get(id)
	genBefore := tr.Generation()
	removed, err := reg.TrimTrace(id, store.Retention{MaxBytes: 4 << 10})
	if err != nil {
		s.tb.Fatal(err)
	}
	if removed > 0 {
		if tr.Generation() <= genBefore {
			s.failf("trimmed/http", "trim removed %d segments without bumping the generation", removed)
		}
		// A closed-store reader never re-reads the manifest; bound the
		// oracle against a fresh reader that sees the janitor's trim.
		r2, err := store.Open(dir, store.ReaderOptions{Cache: store.NewChunkCache(cacheBytes)})
		if err != nil {
			s.tb.Fatal(err)
		}
		defer r2.Close()
		lows = oracleLows(r2)
		if _, ok := lows[tid]; ok && lows[tid] > hi {
			return // the cached thread itself is gone; nothing left to re-serve
		}
		resp3, err := cl.Slice(ctx, req)
		if err != nil {
			s.tb.Fatal(err)
		}
		if resp3.Cached {
			s.failf("trimmed/http", "generation bump did not invalidate the result cache")
		}
		if want := w.BackwardPCsBounded(tid, hi, lows, nil); fmt.Sprint(resp3.PCs) != fmt.Sprint(sortPCSet(want)) {
			s.failf("trimmed/http", "tid %d post-trim served PCs diverged:\nserved %v\noracle %v",
				tid, resp3.PCs, sortPCSet(want))
		}
	}
}

// gatedSink buffers sealed chunks in arrival order and forwards them
// to the real store writer only when released. Arrival order is seal
// order per thread, so releasing any prefix hands the writer a
// stream some slower recording could genuinely have produced — the
// store is mid-recording, not corrupt.
type gatedSink struct {
	mu   sync.Mutex
	wr   *store.Writer
	held []ddg.RawChunk
}

func (g *gatedSink) SpillChunk(ch ddg.RawChunk) {
	g.mu.Lock()
	g.held = append(g.held, ch)
	g.mu.Unlock()
}

func (g *gatedSink) heldCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.held)
}

// release forwards up to n held chunks to the writer.
func (g *gatedSink) release(n int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if n > len(g.held) {
		n = len(g.held)
	}
	for _, ch := range g.held[:n] {
		g.wr.SpillChunk(ch)
	}
	g.held = g.held[n:]
}

// liveAttached replays the exact recording into a fresh store through
// a gate that withholds chunks, so the store is still recording when
// a follower and the live query service attach. Half the stream
// lands: direct slices over the follower and served slices over real
// HTTP (live: true, frontier on the wire) must both equal the
// oracle's frontier-bounded closure — a dependence reaching past the
// frontier contributes its PC but is a dead end, exactly like window
// truncation. Then the rest lands, the writer closes, and the same
// trace must flip to served-complete with the unbounded closures and
// no live fields.
func (s *scenario) liveAttached() {
	s.tb.Helper()
	w := s.want
	root := s.tb.TempDir()
	dir := filepath.Join(root, fmt.Sprintf("live-%d", s.g.Seed))
	wr, err := store.Create(store.Options{Dir: dir, SegmentBytes: 4 << 10})
	if err != nil {
		s.tb.Fatal(err)
	}
	gate := &gatedSink{wr: wr}
	m := s.newMachine()
	off := ontrac.NewOffloaded(s.g.Prog, ontrac.Options{}, pipeline.Options{})
	off.SpillTo(gate)
	s.checkRun("live", m, ontrac.Trace(m, off))

	// The run is over but the store is mid-recording: only the first
	// half of the chunk stream has landed.
	total := gate.heldCount()
	gate.release((total + 1) / 2)

	r, err := store.Open(dir, store.ReaderOptions{Follow: true, Cache: store.NewChunkCache(cacheBytes)})
	if err != nil {
		s.tb.Fatal(err)
	}
	defer r.Close()
	if !r.Live() {
		s.failf("live", "follower of a mid-recording store not live")
	}
	highs := make(map[int]uint64)
	for _, tid := range r.Threads() {
		if _, hi := r.Window(tid); hi > 0 {
			highs[tid] = hi
		}
	}

	// Direct slices at each thread's frontier...
	for tid, hi := range highs {
		pc, ok := w.NodePC(tid, hi)
		if !ok {
			s.failf("live", "frontier instance (%d,%d) unknown to the oracle", tid, hi)
		}
		back := slicing.Backward(r, s.g.Prog,
			[]slicing.Criterion{{ID: ddg.MakeID(tid, hi), PC: pc}}, slicing.Options{})
		s.checkPCSet("live/backward", tid, back.PCs, w.BackwardPCsBounded(tid, hi, nil, highs))
	}

	// ...and served slices from a live registry over real HTTP.
	reg := query.NewRegistry([]string{root}, query.RegistryOptions{CacheBytes: cacheBytes})
	added, err := reg.Refresh()
	if err != nil {
		s.tb.Fatal(err)
	}
	defer reg.Close()
	id := filepath.Base(dir)
	if len(added) != 1 || added[0] != id {
		s.failf("live/http", "mid-recording store not registered: %v", added)
	}
	if err := reg.AttachProgram(id, s.g.Prog, ontrac.Options{}); err != nil {
		s.tb.Fatal(err)
	}
	srv := httptest.NewServer(query.NewServer(reg, query.ServerOptions{MaxConcurrent: 2}).Handler())
	defer srv.Close()
	cl := query.NewClient(srv.URL, srv.Client())
	ctx := context.Background()
	for tid, hi := range highs {
		resp, err := cl.Slice(ctx, &query.SliceRequest{
			Trace: id, Direction: query.DirBackward,
			Criteria: []query.Criterion{{TID: tid, N: hi}},
		})
		if err != nil {
			s.tb.Fatal(err)
		}
		if !resp.Live {
			s.failf("live/http", "tid %d slice of a recording trace not marked live", tid)
		}
		served := make(map[int]uint64)
		for _, fw := range resp.Frontier {
			served[fw.TID] = fw.Hi
		}
		if fmt.Sprint(served) != fmt.Sprint(highs) {
			s.failf("live/http", "served frontier %v, follower frontier %v", served, highs)
		}
		if want := w.BackwardPCsBounded(tid, hi, nil, highs); fmt.Sprint(resp.PCs) != fmt.Sprint(sortPCSet(want)) {
			s.failf("live/http", "tid %d live served backward PCs diverged:\nserved %v\noracle %v",
				tid, resp.PCs, sortPCSet(want))
		}
	}

	// The rest of the stream lands and the writer closes: the follower
	// observes the transition and hands over the complete graph...
	gate.release(total)
	if err := wr.Close(); err != nil {
		s.tb.Fatal(err)
	}
	if _, err := r.Poll(); err != nil {
		s.tb.Fatal(err)
	}
	if r.Live() {
		s.failf("live", "follower still live after the writer closed")
	}
	s.checkGraph("live/final", r, 0)

	// ...and the service flips the same id to served-complete: full
	// unbounded closures, no live fields on the wire.
	closed, err := reg.PollLive()
	if err != nil {
		s.tb.Fatal(err)
	}
	if len(closed) != 1 || closed[0] != id {
		s.failf("live/http", "close transition reported %v, want [%s]", closed, id)
	}
	for _, tid := range w.RecordedThreads() {
		_, hi := w.RecordedWindow(tid)
		resp, err := cl.Slice(ctx, &query.SliceRequest{
			Trace: id, Direction: query.DirBackward,
			Criteria: []query.Criterion{{TID: tid, N: hi}},
		})
		if err != nil {
			s.tb.Fatal(err)
		}
		if resp.Live || resp.Frontier != nil {
			s.failf("live/http", "tid %d closed-trace slice still carries live fields", tid)
		}
		if back := w.BackwardPCs(tid, hi); fmt.Sprint(resp.PCs) != fmt.Sprint(sortPCSet(back)) {
			s.failf("live/http", "tid %d post-close served PCs diverged:\nserved %v\noracle %v",
				tid, resp.PCs, sortPCSet(back))
		}
	}
}
