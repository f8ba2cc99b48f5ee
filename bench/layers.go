package main

import (
	"path/filepath"
	"sync"
	"time"

	"scaldift/internal/bdd"
	"scaldift/internal/ddg"
	"scaldift/internal/dift"
	"scaldift/internal/lineage"
	"scaldift/internal/ontrac"
	"scaldift/internal/pipeline"
	"scaldift/internal/slicing"
	"scaldift/internal/store"
	"scaldift/internal/vm"
)

// The functions in this file run one layer at a time on captured
// input. A concurrent pipeline cannot be timed stage by stage from
// outside, so the traced run replays what each stage consumed — the
// recorder's batches, the extractor's chunks, the closed directory —
// through that stage alone. The existing BENCH_*.json generators use
// the same stage-isolation convention.

// layerItems is the number of isolated measurements sharing the
// layer budget.
const layerItems = 16

// timed runs f under a span until the item's share of budget is
// spent, at least min times, and returns the median wall in seconds.
func (e *env) timed(name string, budget time.Duration, min int, f func()) float64 {
	var walls []float64
	repeat(budget/layerItems, min, func() {
		sp := e.tr.start(name, nil)
		t0 := time.Now()
		f()
		walls = append(walls, time.Since(t0).Seconds())
		sp.end()
	})
	return median(walls)
}

// recordOnly runs the program with nothing but the batching recorder
// attached, freeing every batch as it seals: the execution thread's
// share of an offloaded run. It returns the batches sealed and the
// events the filter kept.
func (e *env) recordOnly(filter func(*vm.Event) bool) (batches, kept uint64) {
	m := e.w.NewMachine()
	var rec *vm.Recorder
	rec = vm.NewRecorder(vm.DefaultBatchEvents, filter, func(b *vm.Batch) {
		batches++
		kept += uint64(len(b.Events))
		rec.Free(b)
	})
	m.AttachTool(rec)
	res := m.Run()
	rec.Flush()
	e.checkRun(m, res)
	return batches, kept
}

// consumeDIFT replays captured batches through a fresh pipeline.
func consumeDIFT[L comparable](dom dift.Domain[L], workers int, batches []*vm.Batch) (events uint64, st pipeline.LearnerStats) {
	p := pipeline.New(dom, dift.DefaultPolicy(), pipeline.Options{Workers: workers})
	p.AddSink(dift.NopSink[L]{})
	p.Consume(batches)
	p.Close()
	return p.Events(), p.ConflictStats()
}

// analyze replays captured label-relevant batches through the
// workload's domain with the given worker count (0 = default).
func (e *env) analyze(workers int, batches []*vm.Batch) (uint64, pipeline.LearnerStats) {
	if e.def.lineage {
		return consumeDIFT[bdd.Ref](lineage.NewLockedDomain(e.lineageBits()), workers, batches)
	}
	return consumeDIFT[bool](dift.Bool{}, workers, batches)
}

// inlineDIFT runs the program under the inline engine of the
// workload's domain: the paper's inline baseline.
func (e *env) inlineDIFT() (sinkOutputs, taintedWords, bddNodes int) {
	m := e.w.NewMachine()
	if e.def.lineage {
		d := lineage.NewDomain(e.lineageBits())
		eng, rec, res := lineage.Run(m, d, dift.DefaultPolicy())
		e.checkRun(m, res)
		return len(rec.Outputs), eng.TaintedWords(), d.Manager().NumNodes()
	}
	sink := &dift.CollectSink[bool]{}
	eng := dift.NewEngine[bool](dift.Bool{}, dift.DefaultPolicy())
	eng.AddSink(sink)
	m.AttachTool(eng)
	e.checkRun(m, m.Run())
	return len(sink.Outputs), eng.TaintedWords(), 0
}

// chunkCapture is a ddg.ChunkSink that keeps every sealed chunk. A
// sealed chunk's Buf is immutable, so retaining it needs no copy.
type chunkCapture struct {
	mu     sync.Mutex
	chunks []ddg.RawChunk
	bytes  uint64
}

func (c *chunkCapture) SpillChunk(ch ddg.RawChunk) {
	c.mu.Lock()
	c.chunks = append(c.chunks, ch)
	c.bytes += uint64(len(ch.Buf))
	c.mu.Unlock()
}

// extract replays captured trace-relevant batches through a fresh
// offloaded ONTRAC stage whose chunks go to sink.
func (e *env) extract(workers int, batches []*vm.Batch, sink ddg.ChunkSink) *ontrac.Offloaded {
	off := ontrac.NewOffloaded(e.w.Prog, e.def.trace, pipeline.Options{Workers: workers})
	off.SpillTo(sink)
	off.Consume(batches)
	off.Close()
	return off
}

// layers measures every layer alone and adds the per-layer metrics
// to out. walls are the traced pass's step timings, which the overlap
// ratios divide by.
func (e *env) layers(budget time.Duration, walls *timings, out map[string]float64) error {
	instr := float64(e.ref.instructions)

	// vm: the interpreter and the recorder.
	out["vm.instructions"] = instr
	out["vm.native_s"] = median(durations(walls.native))
	var batches, kept uint64
	out["vm.record_dift_s"] = e.timed("vm.record_dift", budget, 2, func() {
		batches, kept = e.recordOnly(dift.Relevant)
		e.gate.same("vm.batches", batches)
		e.gate.same("vm.record_kept", kept)
	})
	out["vm.record_trace_s"] = e.timed("vm.record_trace", budget, 2, func() { e.recordOnly(ddg.TraceRelevant) })
	out["vm.record_kept_ratio"] = float64(kept) / instr
	out["vm.batches"] = float64(batches)

	// pipeline: propagation over the captured label-relevant stream.
	captured, res := pipeline.Collect(e.w.NewMachine(), vm.DefaultBatchEvents)
	e.gate.check(!res.Failed, "%s: capture run failed: %s", e.def.name, res.FailMsg)
	var events uint64
	var st pipeline.LearnerStats
	out["pipeline.analyze_s"] = e.timed("pipeline.analyze", budget, 1, func() {
		events, st = e.analyze(0, captured)
		e.gate.same("pipeline.events", events)
		e.gate.same("pipeline.windows_multichain", st.Windows)
	})
	out["pipeline.analyze_w1_s"] = e.timed("pipeline.analyze_w1", budget, 1, func() { e.analyze(1, captured) })
	captured = nil
	trackWall := median(durations(walls.trackTotal))
	out["pipeline.events"] = float64(events)
	out["pipeline.overlap_ratio"] = (out["vm.record_dift_s"] + out["pipeline.analyze_s"]) / trackWall
	out["pipeline.windows_multichain"] = float64(st.Windows)
	out["pipeline.windows_fast_parallel"] = float64(st.FastParallel)
	out["pipeline.windows_grouped"] = float64(st.GroupedParallel)
	out["pipeline.windows_precise_scan"] = float64(st.PreciseScans)
	out["pipeline.windows_ordered_merge"] = float64(st.OrderedMerges)
	out["pipeline.verify_misses"] = float64(st.VerifyMisses)
	out["pipeline.parallel_window_share"] = 0
	if st.Windows > 0 {
		out["pipeline.parallel_window_share"] = float64(st.Windows-st.OrderedMerges) / float64(st.Windows)
	}

	// dift, shadow, bdd, lineage: the inline engine and what the
	// offloaded one left behind.
	var sinkOutputs int
	out["dift.inline_s"] = e.timed("dift.inline", budget, 1, func() { sinkOutputs, _, _ = e.inlineDIFT() })
	out["dift.inline_self_s"] = out["dift.inline_s"] - out["vm.native_s"]
	out["dift.sink_observations"] = float64(sinkOutputs)
	out["shadow.tainted_words"] = float64(walls.track.taintedWords)
	out["bdd.nodes"] = float64(walls.track.bddNodes)
	out["lineage.outputs_checked"] = float64(e.lineageChecked)
	out["lineage.mismatches"] = float64(e.lineageMismatch)

	// ontrac and ddg: extraction and elision over the captured
	// trace-relevant stream, chunks kept for the store replay.
	out["ontrac.inline_s"] = e.timed("ontrac.inline", budget, 1, func() {
		m := e.w.NewMachine()
		m.AttachTool(ontrac.New(e.w.Prog, e.def.trace).Tool())
		e.checkRun(m, m.Run())
	})
	captured, res = pipeline.CollectWith(e.w.NewMachine(), vm.DefaultBatchEvents, ddg.TraceRelevant)
	e.gate.check(!res.Failed, "%s: capture run failed: %s", e.def.name, res.FailMsg)
	var chunks *chunkCapture
	var mem *ontrac.Offloaded
	out["ontrac.extract_s"] = e.timed("ontrac.extract", budget, 1, func() {
		chunks = &chunkCapture{}
		mem = e.extract(0, captured, chunks)
		e.gate.same("ddg.chunks", uint64(len(chunks.chunks)))
		e.gate.same("ddg.bytes", chunks.bytes)
	})
	out["ontrac.extract_w1_s"] = e.timed("ontrac.extract_w1", budget, 1, func() { e.extract(1, captured, &chunkCapture{}) })
	captured = nil
	traceWall := median(durations(walls.traceTotal))
	ost := mem.Stats()
	out["ontrac.deps_seen"] = float64(ost.DepsSeen)
	out["ontrac.deps_stored"] = float64(ost.DepsStored)
	out["ontrac.elided_share"] = 0
	if ost.DepsSeen > 0 {
		out["ontrac.elided_share"] = 1 - float64(ost.DepsStored)/float64(ost.DepsSeen)
	}
	out["ontrac.overlap_ratio"] = (out["vm.record_trace_s"] + out["ontrac.extract_s"]) / traceWall
	out["ddg.chunks"] = float64(len(chunks.chunks))
	out["ddg.bytes"] = float64(chunks.bytes)
	out["ddg.bytes_per_instr"] = float64(chunks.bytes) / instr

	// store: the captured chunk stream through the writer alone, then
	// the closed directory reopened and scanned.
	dir := filepath.Join(e.work, "replay")
	var wr *store.Writer
	var err error
	out["store.spill_s"] = e.timed("store.spill", budget, 2, func() {
		if err != nil {
			return
		}
		if wr, err = store.Create(store.Options{Dir: dir}); err != nil {
			return
		}
		for _, ch := range chunks.chunks {
			wr.SpillChunk(ch)
		}
		err = wr.Close()
	})
	if err != nil {
		return err
	}
	disk, err := dirBytes(dir)
	if err != nil {
		return err
	}
	e.gate.same("store.disk_bytes", disk)
	out["store.spill_mb_per_s"] = float64(chunks.bytes) / 1e6 / out["store.spill_s"]
	out["store.spill_share"] = out["store.spill_s"] / traceWall
	out["store.segments"] = float64(wr.SegmentsSealed())
	out["store.disk_bytes"] = float64(disk)
	out["store.disk_bytes_per_trace_byte"] = float64(disk) / float64(chunks.bytes)

	var rd *store.Reader
	out["store.open_s"] = e.timed("store.open", budget, 2, func() {
		if err != nil {
			return
		}
		if rd != nil {
			err = rd.Close()
		}
		if err == nil {
			rd, err = store.Open(dir, store.ReaderOptions{})
		}
	})
	if err != nil {
		return err
	}
	defer rd.Close()
	var loads int64
	out["store.scan_s"] = e.timed("store.scan", budget, 1, func() {
		// A fresh reader per scan: its index and chunk cache are cold.
		cold, oerr := store.Open(dir, store.ReaderOptions{})
		if oerr != nil {
			err = oerr
			return
		}
		defer cold.Close()
		b := store.NewBudget(0)
		view := cold.Budgeted(b)
		for _, tid := range view.Threads() {
			lo, hi := view.Window(tid)
			for n := lo; n <= hi && lo != 0; n++ {
				view.DepsOf(ddg.MakeID(tid, n), func(ddg.Dep) {})
			}
		}
		loads = b.ChunkLoads()
		e.gate.same("store.scan_chunk_loads", uint64(loads))
	})
	if err != nil {
		return err
	}
	out["store.scan_chunk_loads"] = float64(loads)
	out["store.decode_us_per_chunk"] = 0
	if loads > 0 {
		out["store.decode_us_per_chunk"] = out["store.scan_s"] * 1e6 / float64(loads)
	}

	// slicing: backward from the last output, in memory and over the
	// store, sequential and sharded; forward from the first input.
	id := ddg.MakeID(e.ref.lastOut.TID, e.ref.lastOut.N)
	crits := []slicing.Criterion{{ID: id, PC: *e.ref.lastOut.PC}}
	sopts := slicing.Options{FollowControl: true, MaxNodes: firstAnswerMaxNodes}
	overStore := ontrac.NewStaticReconstructor(e.w.Prog, e.def.trace).ReaderOver(rd)
	const workers = 8 // query.ServerOptions' default shard switch
	// In memory the slice runs sequentially: an ontrac.Reader over
	// in-memory compact shards is not safe for concurrent decode, and
	// backward_seq_store_s is the figure it pairs with.
	var seq *slicing.Slice
	out["slicing.backward_mem_s"] = e.timed("slicing.backward_mem", budget, 1, func() {
		slicing.Backward(mem.Reader(), e.w.Prog, crits, sopts)
	})
	out["slicing.backward_seq_store_s"] = e.timed("slicing.backward_seq_store", budget, 1, func() {
		seq = slicing.Backward(overStore, e.w.Prog, crits, sopts)
		e.gate.same("slicing.nodes", uint64(seq.Nodes))
		e.gate.same("slicing.edges", uint64(seq.Edges))
	})
	var par *slicing.Slice
	out["slicing.backward_store_s"] = e.timed("slicing.backward_store", budget, 1, func() {
		par = slicing.ParallelBackward(overStore, e.w.Prog, crits, sopts, workers)
	})
	out["slicing.forward_store_s"] = e.timed("slicing.forward_store", budget, 1, func() {
		slicing.ParallelForward(overStore, e.w.Prog, []ddg.ID{e.ref.firstIn}, sopts, workers)
	})
	out["slicing.nodes"] = float64(seq.Nodes)
	out["slicing.edges"] = float64(seq.Edges)
	out["slicing.nodes_per_s"] = float64(par.Nodes) / out["slicing.backward_store_s"]
	var busyMax, busySum time.Duration
	for _, d := range par.ShardBusy {
		busySum += d
		if d > busyMax {
			busyMax = d
		}
	}
	out["slicing.shard_busy_max_share"] = 0
	if busySum > 0 {
		out["slicing.shard_busy_max_share"] = float64(busyMax) / float64(busySum)
	}
	return nil
}
